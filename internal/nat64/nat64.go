// Package nat64 implements a stateful NAT64 translator (RFC 6146) with
// IP/ICMP header translation per RFC 7915. The testbed's 5G gateway
// embeds one instance on the well-known prefix 64:ff9b::/96: IPv6-only
// and RFC 8925 clients reach the IPv4 internet exclusively through it.
package nat64

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/dns64"
	"repro/internal/packet"
)

// Default session lifetimes from RFC 6146 §4.
const (
	DefaultUDPTimeout  = 5 * time.Minute
	DefaultTCPTimeout  = 2 * time.Hour
	DefaultICMPTimeout = 60 * time.Second
)

// Errors reported by the translator.
var (
	ErrNotInPrefix    = errors.New("nat64: destination not inside translation prefix")
	ErrNoSession      = errors.New("nat64: no session for inbound packet")
	ErrPortsExhausted = errors.New("nat64: port pool exhausted")
	ErrHopLimit       = errors.New("nat64: hop limit exceeded")
	ErrUnsupported    = errors.New("nat64: unsupported protocol")
)

// Config parameterizes a translator.
type Config struct {
	// Prefix is the IPv6 translation prefix (a /96).
	Prefix netip.Prefix
	// PublicV4 is the single public IPv4 address sessions are mapped to.
	PublicV4 netip.Addr
	// PortMin/PortMax bound the external port pool.
	PortMin, PortMax uint16

	UDPTimeout  time.Duration
	TCPTimeout  time.Duration
	ICMPTimeout time.Duration
	// TCPTransTimeout is the RFC 6146 §5.2 TCP_TRANS timer applied to
	// closing TCP sessions (FIN/RST seen). Zero means the RFC default.
	TCPTransTimeout time.Duration
}

// DefaultTCPTransTimeout is the RFC 6146 §5.2 TCP_TRANS timer: once a
// FIN or RST is seen, the session only lingers briefly.
const DefaultTCPTransTimeout = 4 * time.Minute

// Session is one RFC 6146 binding (endpoint-independent mapping).
type Session struct {
	Proto    uint8
	SrcV6    netip.Addr
	SrcPort  uint16 // or ICMP identifier
	ExtPort  uint16 // allocated external port / identifier
	LastSeen time.Time
	PktsOut  uint64
	PktsIn   uint64
	// BytesOut / BytesIn count L4 payload octets carried across the
	// binding in each direction (flow-volume accounting for the
	// heavy-traffic workload).
	BytesOut uint64
	BytesIn  uint64
	// Closing is set once a FIN or RST crossed the session, switching it
	// to the short TCP_TRANS timeout.
	Closing bool
}

type mapKey struct {
	proto uint8
	src   netip.Addr
	port  uint16
}

type extKey struct {
	proto uint8
	port  uint16
}

// Translator is a stateful NAT64.
type Translator struct {
	cfg Config
	now func() time.Time

	outbound map[mapKey]*Session
	inbound  map[extKey]*Session
	nextPort uint16

	// Counters for the experiment harness.
	TranslatedOut uint64
	TranslatedIn  uint64
	DroppedNoSess uint64
	// BytesOut / BytesIn aggregate translated L4 payload octets across
	// all sessions, per direction.
	BytesOut uint64
	BytesIn  uint64

	// CorruptChecksums makes every translated v6→v4 packet leave with a
	// broken L4 checksum, reproducing the recomputation bug Hsu et al.
	// ("A First Look at NAT64 Deployment in the Wild") observed in
	// deployed translators: receivers verify and silently discard, so
	// every translated flow stalls while native IPv6 is untouched.
	CorruptChecksums bool
	// ChecksumsCorrupted counts packets mangled by CorruptChecksums.
	ChecksumsCorrupted uint64

	// MaxSessionsPerSource caps the number of concurrently live
	// sessions any single IPv6 source may hold (0 = unlimited). This is
	// the nat64-port-exhaustion pathology's quota: exhaustion onset is
	// load-dependent, a busy client starves only itself, and recovery
	// rides session idle-timeout expiry — which keeps exhaustion
	// position-independent across shard worlds, unlike a raw shared
	// pool squeeze.
	MaxSessionsPerSource int
	// PortsExhausted counts outbound flows refused ErrPortsExhausted,
	// whether by an empty pool or by the per-source session quota.
	PortsExhausted uint64
}

// New creates a translator. Zero timeout fields take the RFC defaults;
// a zero port range defaults to 32768..65535.
func New(cfg Config, now func() time.Time) (*Translator, error) {
	if cfg.Prefix.Bits() != 96 {
		return nil, fmt.Errorf("nat64: prefix %v must be a /96", cfg.Prefix)
	}
	if !cfg.PublicV4.Is4() {
		return nil, fmt.Errorf("nat64: PublicV4 %v must be IPv4", cfg.PublicV4)
	}
	if cfg.PortMin == 0 && cfg.PortMax == 0 {
		cfg.PortMin, cfg.PortMax = 32768, 65535
	}
	if cfg.PortMin > cfg.PortMax {
		return nil, fmt.Errorf("nat64: port range %d..%d inverted", cfg.PortMin, cfg.PortMax)
	}
	if cfg.UDPTimeout == 0 {
		cfg.UDPTimeout = DefaultUDPTimeout
	}
	if cfg.TCPTimeout == 0 {
		cfg.TCPTimeout = DefaultTCPTimeout
	}
	if cfg.ICMPTimeout == 0 {
		cfg.ICMPTimeout = DefaultICMPTimeout
	}
	if cfg.TCPTransTimeout == 0 {
		cfg.TCPTransTimeout = DefaultTCPTransTimeout
	}
	return &Translator{
		cfg:      cfg,
		now:      now,
		outbound: make(map[mapKey]*Session),
		inbound:  make(map[extKey]*Session),
		nextPort: cfg.PortMin,
	}, nil
}

// Config returns the active configuration.
func (t *Translator) Config() Config { return t.cfg }

// FlushSessions drops every binding at once — the effect of a gateway
// power cycle on translator state. The port cursor is NOT reset:
// external peers may hold connection state keyed by pre-flush ports for
// minutes, so reusing those ports immediately would splice new sessions
// into dead peer connections (RFC 6146 §3.5.1.1 recommends not reusing
// a port while the peer may still associate it with the old session).
func (t *Translator) FlushSessions() {
	clear(t.outbound)
	clear(t.inbound)
}

// SessionCount returns the number of live (unexpired) sessions.
func (t *Translator) SessionCount() int {
	n := 0
	now := t.now()
	for _, s := range t.outbound {
		if !t.expired(s, now) {
			n++
		}
	}
	return n
}

func (t *Translator) timeoutFor(s *Session) time.Duration {
	switch s.Proto {
	case packet.ProtoTCP:
		if s.Closing {
			return t.cfg.TCPTransTimeout
		}
		return t.cfg.TCPTimeout
	case packet.ProtoUDP:
		return t.cfg.UDPTimeout
	default:
		return t.cfg.ICMPTimeout
	}
}

func (t *Translator) expired(s *Session, now time.Time) bool {
	return now.Sub(s.LastSeen) > t.timeoutFor(s)
}

// ExpireSessions removes sessions idle past their timeout and returns
// how many were evicted.
func (t *Translator) ExpireSessions() int {
	now := t.now()
	evicted := 0
	for k, s := range t.outbound {
		if t.expired(s, now) {
			delete(t.outbound, k)
			delete(t.inbound, extKey{proto: s.Proto, port: s.ExtPort})
			evicted++
		}
	}
	return evicted
}

// session finds or creates the binding for an outbound flow.
func (t *Translator) session(proto uint8, src netip.Addr, srcPort uint16) (*Session, error) {
	key := mapKey{proto: proto, src: src, port: srcPort}
	if s, ok := t.outbound[key]; ok && !t.expired(s, t.now()) {
		return s, nil
	}
	if t.MaxSessionsPerSource > 0 && t.liveFrom(src) >= t.MaxSessionsPerSource {
		t.PortsExhausted++
		return nil, ErrPortsExhausted
	}
	ext, err := t.allocPort(proto)
	if err != nil {
		if errors.Is(err, ErrPortsExhausted) {
			t.PortsExhausted++
		}
		return nil, err
	}
	s := &Session{Proto: proto, SrcV6: src, SrcPort: srcPort, ExtPort: ext, LastSeen: t.now()}
	t.outbound[key] = s
	t.inbound[extKey{proto: proto, port: ext}] = s
	return s, nil
}

// liveFrom counts the unexpired sessions held by one IPv6 source. The
// table is walked on demand: expiry is lazy, so a cached per-source
// counter would overcount sessions that timed out but were never
// reclaimed.
func (t *Translator) liveFrom(src netip.Addr) int {
	n := 0
	now := t.now()
	for _, s := range t.outbound {
		if s.SrcV6 == src && !t.expired(s, now) {
			n++
		}
	}
	return n
}

// SetPortRange replaces the external port pool bounds — the
// nat64-port-exhaustion pathology's Budget hook, called on a freshly
// built (session-free) world to size the pool to the shard's device
// count. The allocation cursor restarts at the new minimum.
func (t *Translator) SetPortRange(min, max uint16) error {
	if min == 0 || min > max {
		return fmt.Errorf("nat64: port range %d..%d invalid", min, max)
	}
	t.cfg.PortMin, t.cfg.PortMax = min, max
	t.nextPort = min
	return nil
}

// SetSessionTimeouts overrides the session idle timeouts in place.
// Non-positive arguments leave the corresponding timeout untouched.
func (t *Translator) SetSessionTimeouts(udp, tcp, icmp, tcpTrans time.Duration) {
	if udp > 0 {
		t.cfg.UDPTimeout = udp
	}
	if tcp > 0 {
		t.cfg.TCPTimeout = tcp
	}
	if icmp > 0 {
		t.cfg.ICMPTimeout = icmp
	}
	if tcpTrans > 0 {
		t.cfg.TCPTransTimeout = tcpTrans
	}
}

func (t *Translator) allocPort(proto uint8) (uint16, error) {
	span := int(t.cfg.PortMax) - int(t.cfg.PortMin) + 1
	for i := 0; i < span; i++ {
		p := t.nextPort
		if t.nextPort == t.cfg.PortMax {
			t.nextPort = t.cfg.PortMin
		} else {
			t.nextPort++
		}
		k := extKey{proto: proto, port: p}
		if s, ok := t.inbound[k]; !ok || t.expired(s, t.now()) {
			if s != nil {
				delete(t.outbound, mapKey{proto: s.Proto, src: s.SrcV6, port: s.SrcPort})
			}
			return p, nil
		}
	}
	return 0, ErrPortsExhausted
}

// TranslateV6ToV4 translates one outbound IPv6 packet into IPv4 per
// RFC 7915 §5, creating or refreshing a session.
func (t *Translator) TranslateV6ToV4(p *packet.IPv6) (*packet.IPv4, error) {
	dstV4, ok := dns64.Extract(t.cfg.Prefix, p.Dst)
	if !ok {
		return nil, ErrNotInPrefix
	}
	if p.HopLimit <= 1 {
		return nil, ErrHopLimit
	}
	out := &packet.IPv4{
		TTL:      p.HopLimit - 1,
		Src:      t.cfg.PublicV4,
		Dst:      dstV4,
		DontFrag: true,
	}
	switch p.NextHeader {
	case packet.ProtoUDP:
		var u packet.UDP
		if err := u.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return nil, err
		}
		s, err := t.session(packet.ProtoUDP, p.Src, u.SrcPort)
		if err != nil {
			return nil, err
		}
		s.LastSeen = t.now()
		s.PktsOut++
		s.BytesOut += uint64(len(p.Payload))
		out.Protocol = packet.ProtoUDP
		out.Payload = (&packet.UDP{SrcPort: s.ExtPort, DstPort: u.DstPort, Payload: u.Payload}).Marshal(out.Src, out.Dst)
	case packet.ProtoTCP:
		var tc packet.TCP
		if err := tc.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return nil, err
		}
		s, err := t.session(packet.ProtoTCP, p.Src, tc.SrcPort)
		if err != nil {
			return nil, err
		}
		s.LastSeen = t.now()
		s.PktsOut++
		s.BytesOut += uint64(len(p.Payload))
		if tc.Flags&(packet.TCPFin|packet.TCPRst) != 0 {
			s.Closing = true
		} else if tc.HasFlags(packet.TCPSyn) {
			s.Closing = false // binding reused by a fresh connection
		}
		out.Protocol = packet.ProtoTCP
		tc2 := tc
		tc2.SrcPort = s.ExtPort
		out.Payload = tc2.Marshal(out.Src, out.Dst)
	case packet.ProtoICMPv6:
		var ic packet.ICMP
		if err := ic.DecodeV6(p.Payload, p.Src, p.Dst); err != nil {
			return nil, err
		}
		if ic.Type != packet.ICMPv6EchoRequest {
			return nil, fmt.Errorf("%w: ICMPv6 type %d", ErrUnsupported, ic.Type)
		}
		id, seq, data, err := packet.EchoFields(ic.Body)
		if err != nil {
			return nil, err
		}
		s, err := t.session(packet.ProtoICMP, p.Src, id)
		if err != nil {
			return nil, err
		}
		s.LastSeen = t.now()
		s.PktsOut++
		s.BytesOut += uint64(len(p.Payload))
		out.Protocol = packet.ProtoICMP
		out.Payload = (&packet.ICMP{Type: packet.ICMPv4Echo, Body: packet.EchoBody(s.ExtPort, seq, data)}).MarshalV4()
	default:
		return nil, fmt.Errorf("%w: next header %d", ErrUnsupported, p.NextHeader)
	}
	t.TranslatedOut++
	t.BytesOut += uint64(len(p.Payload))
	if t.CorruptChecksums {
		corruptL4(out.Protocol, out.Payload)
		t.ChecksumsCorrupted++
	}
	return out, nil
}

// corruptL4 flips the L4 checksum of a freshly marshaled v4 payload in
// place. The field offsets are fixed per protocol; a zero result is
// avoided for UDP, where RFC 768 would read it as "no checksum".
func corruptL4(proto uint8, b []byte) {
	var off int
	switch proto {
	case packet.ProtoUDP:
		off = 6
	case packet.ProtoTCP:
		off = 16
	case packet.ProtoICMP:
		off = 2
	default:
		return
	}
	if len(b) < off+2 {
		return
	}
	ck := uint16(b[off])<<8 | uint16(b[off+1])
	ck ^= 0xffff
	if ck == 0 {
		ck = 1
	}
	b[off] = byte(ck >> 8)
	b[off+1] = byte(ck)
}

// TranslateV4ToV6 translates one inbound IPv4 packet back to IPv6,
// synthesizing the source address inside the prefix.
func (t *Translator) TranslateV4ToV6(p *packet.IPv4) (*packet.IPv6, error) {
	if p.Dst != t.cfg.PublicV4 {
		return nil, ErrNoSession
	}
	if p.TTL <= 1 {
		return nil, ErrHopLimit
	}
	srcV6, err := dns64.Synthesize(t.cfg.Prefix, p.Src)
	if err != nil {
		return nil, err
	}
	out := &packet.IPv6{HopLimit: p.TTL - 1, Src: srcV6}

	lookup := func(proto uint8, extPort uint16) (*Session, error) {
		s, ok := t.inbound[extKey{proto: proto, port: extPort}]
		if !ok || t.expired(s, t.now()) {
			t.DroppedNoSess++
			return nil, ErrNoSession
		}
		s.LastSeen = t.now()
		s.PktsIn++
		s.BytesIn += uint64(len(p.Payload))
		return s, nil
	}

	switch p.Protocol {
	case packet.ProtoUDP:
		var u packet.UDP
		if err := u.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return nil, err
		}
		s, err := lookup(packet.ProtoUDP, u.DstPort)
		if err != nil {
			return nil, err
		}
		out.Dst = s.SrcV6
		out.NextHeader = packet.ProtoUDP
		out.Payload = (&packet.UDP{SrcPort: u.SrcPort, DstPort: s.SrcPort, Payload: u.Payload}).Marshal(out.Src, out.Dst)
	case packet.ProtoTCP:
		var tc packet.TCP
		if err := tc.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return nil, err
		}
		s, err := lookup(packet.ProtoTCP, tc.DstPort)
		if err != nil {
			return nil, err
		}
		if tc.Flags&(packet.TCPFin|packet.TCPRst) != 0 {
			s.Closing = true
		}
		out.Dst = s.SrcV6
		out.NextHeader = packet.ProtoTCP
		tc2 := tc
		tc2.DstPort = s.SrcPort
		out.Payload = tc2.Marshal(out.Src, out.Dst)
	case packet.ProtoICMP:
		var ic packet.ICMP
		if err := ic.DecodeV4(p.Payload); err != nil {
			return nil, err
		}
		if packet.IsICMPv4Error(ic.Type) {
			return t.translateICMPv4Error(p, &ic)
		}
		if ic.Type != packet.ICMPv4EchoReply {
			return nil, fmt.Errorf("%w: ICMPv4 type %d", ErrUnsupported, ic.Type)
		}
		id, seq, data, err := packet.EchoFields(ic.Body)
		if err != nil {
			return nil, err
		}
		s, err := lookup(packet.ProtoICMP, id)
		if err != nil {
			return nil, err
		}
		out.Dst = s.SrcV6
		out.NextHeader = packet.ProtoICMPv6
		out.Payload = (&packet.ICMP{Type: packet.ICMPv6EchoReply, Body: packet.EchoBody(s.SrcPort, seq, data)}).MarshalV6(out.Src, out.Dst)
	default:
		return nil, fmt.Errorf("%w: protocol %d", ErrUnsupported, p.Protocol)
	}
	t.TranslatedIn++
	t.BytesIn += uint64(len(p.Payload))
	return out, nil
}
