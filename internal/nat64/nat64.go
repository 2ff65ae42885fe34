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
	"repro/internal/nat64/napt"
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

	// SessionTimeout, when positive, is every session's idle timeout:
	// UDP, TCP, ICMP and the TCP_TRANS timer of closing TCP sessions
	// alike. Zero keeps the RFC 6146 per-protocol defaults.
	SessionTimeout time.Duration
}

// DefaultTCPTransTimeout is the RFC 6146 §5.2 TCP_TRANS timer: once a
// FIN or RST is seen, the session only lingers briefly.
const DefaultTCPTransTimeout = 4 * time.Minute

// defaultTimeouts are the RFC 6146 session idle timeouts.
var defaultTimeouts = napt.Timeouts{
	UDP: DefaultUDPTimeout, TCP: DefaultTCPTimeout, ICMP: DefaultICMPTimeout, TCPTrans: DefaultTCPTransTimeout,
}

// Translator is a stateful NAT64.
type Translator struct {
	prefix netip.Prefix
	public netip.Addr
	// table holds the sessions, the external port range and the session
	// timeouts.
	table *napt.Table

	// translatorState holds what a run changes outside the table;
	// Checkpoint saves a copy in saved and Restore copies it back
	// (checkpoint.go).
	translatorState
	saved *translatorState

	// out64 and out46 hold the transport message of the latest result
	// in each direction (see the Translate methods for its lifetime).
	// They are scratch, so Checkpoint/Restore skip them.
	out64 []byte
	out46 []byte
}

// translatorState is the part of a Translator that a run changes
// outside its session table: the counters and the pathology knobs.
type translatorState struct {
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

// New creates a translator. A zero SessionTimeout keeps the RFC
// defaults; a zero port range defaults to 32768..65535.
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
	table, err := napt.New(cfg.PortMin, cfg.PortMax, defaultTimeouts, now)
	if err != nil {
		return nil, fmt.Errorf("nat64: %w", err)
	}
	t := &Translator{prefix: cfg.Prefix, public: cfg.PublicV4, table: table}
	t.SetSessionTimeout(cfg.SessionTimeout)
	return t, nil
}

// Config returns the active configuration. SessionTimeout reads zero
// while the RFC 6146 defaults are in force.
func (t *Translator) Config() Config {
	portMin, portMax := t.table.PortRange()
	cfg := Config{Prefix: t.prefix, PublicV4: t.public, PortMin: portMin, PortMax: portMax}
	if idle := t.table.Timeouts(); idle != defaultTimeouts {
		cfg.SessionTimeout = idle.UDP
	}
	return cfg
}

// FlushSessions drops every binding at once — the effect of a gateway
// power cycle on translator state. The port cursor is NOT reset:
// external peers may hold connection state keyed by pre-flush ports for
// minutes, so reusing those ports immediately would splice new sessions
// into dead peer connections (RFC 6146 §3.5.1.1 recommends not reusing
// a port while the peer may still associate it with the old session).
func (t *Translator) FlushSessions() { t.table.Flush() }

// SessionCount returns the number of live (unexpired) sessions.
func (t *Translator) SessionCount() int { return t.table.Live(netip.Addr{}) }

// session finds or creates the binding for an outbound flow.
func (t *Translator) session(proto uint8, src netip.Addr, srcPort uint16) (*napt.Binding, error) {
	if s := t.table.Lookup(proto, src, srcPort); s != nil {
		return s, nil
	}
	if t.MaxSessionsPerSource > 0 && t.table.Live(src) >= t.MaxSessionsPerSource {
		t.PortsExhausted++
		return nil, ErrPortsExhausted
	}
	s := t.table.Open(proto, src, srcPort)
	if s == nil {
		t.PortsExhausted++
		return nil, ErrPortsExhausted
	}
	return s, nil
}

// SetPortRange replaces the external port pool bounds — the
// nat64-port-exhaustion pathology's Budget hook, called on a freshly
// built (session-free) world to size the pool to the shard's device
// count. The allocation cursor restarts at the new minimum.
func (t *Translator) SetPortRange(min, max uint16) error {
	return t.table.SetPortRange(min, max)
}

// SetSessionTimeout sets every session idle timeout (UDP, TCP, ICMP
// and TCP_TRANS) to d in place. A non-positive d keeps the current
// timeouts.
func (t *Translator) SetSessionTimeout(d time.Duration) {
	if d > 0 {
		t.table.SetTimeouts(napt.Timeouts{UDP: d, TCP: d, ICMP: d, TCPTrans: d})
	}
}

// TranslateV6ToV4 translates one outbound IPv6 packet into IPv4 per
// RFC 7915 §5, creating or refreshing a session, and writes the result
// into out. out.Payload lives in the translator's scratch for this
// direction: it is valid until the next TranslateV6ToV4 call, so a
// caller that keeps it longer copies it. On error out is left in an
// unspecified state.
func (t *Translator) TranslateV6ToV4(p *packet.IPv6, out *packet.IPv4) error {
	dstV4, ok := dns64.Extract(t.prefix, p.Dst)
	if !ok {
		return ErrNotInPrefix
	}
	if p.HopLimit <= 1 {
		return ErrHopLimit
	}
	*out = packet.IPv4{
		TTL:      p.HopLimit - 1,
		Src:      t.public,
		Dst:      dstV4,
		DontFrag: true,
	}
	switch p.NextHeader {
	case packet.ProtoUDP:
		var u packet.UDP
		if err := u.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		s, err := t.session(packet.ProtoUDP, p.Src, u.SrcPort)
		if err != nil {
			return err
		}
		out.Protocol = packet.ProtoUDP
		t.out64 = (&packet.UDP{SrcPort: s.ExtPort, DstPort: u.DstPort, Payload: u.Payload}).AppendTo(t.out64[:0], out.Src, out.Dst)
	case packet.ProtoTCP:
		var tc packet.TCP
		if err := tc.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		s, err := t.session(packet.ProtoTCP, p.Src, tc.SrcPort)
		if err != nil {
			return err
		}
		if tc.Flags&(packet.TCPFin|packet.TCPRst) != 0 {
			s.Closing = true
		} else if tc.HasFlags(packet.TCPSyn) {
			s.Closing = false // binding reused by a fresh connection
		}
		out.Protocol = packet.ProtoTCP
		tc.SrcPort = s.ExtPort
		t.out64 = tc.AppendTo(t.out64[:0], out.Src, out.Dst)
	case packet.ProtoICMPv6:
		var ic packet.ICMP
		if err := ic.DecodeV6(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		if ic.Type != packet.ICMPv6EchoRequest {
			return fmt.Errorf("%w: ICMPv6 type %d", ErrUnsupported, ic.Type)
		}
		id, seq, data, err := packet.EchoFields(ic.Body)
		if err != nil {
			return err
		}
		s, err := t.session(packet.ProtoICMP, p.Src, id)
		if err != nil {
			return err
		}
		out.Protocol = packet.ProtoICMP
		t.out64 = (&packet.ICMP{Type: packet.ICMPv4Echo, Body: packet.EchoBody(s.ExtPort, seq, data)}).AppendToV4(t.out64[:0])
	default:
		return fmt.Errorf("%w: next header %d", ErrUnsupported, p.NextHeader)
	}
	out.Payload = t.out64
	t.TranslatedOut++
	t.BytesOut += uint64(len(p.Payload))
	if t.CorruptChecksums {
		corruptL4(out.Protocol, out.Payload)
		t.ChecksumsCorrupted++
	}
	return nil
}

// corruptL4 flips the L4 checksum of a freshly marshaled v4 payload in
// place. The field offsets are fixed per protocol. 0x0000 and 0xffff
// are the same ones'-complement zero, so a flip between them would
// still verify (and UDP would read 0x0000 as "no checksum"): those two
// become 1 instead.
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
	if ck == 0 || ck == 0xffff {
		ck = 1
	}
	b[off] = byte(ck >> 8)
	b[off+1] = byte(ck)
}

// TranslateV4ToV6 translates one inbound IPv4 packet back to IPv6,
// synthesizing the source address inside the prefix, and writes the
// result into out. out.Payload lives in the translator's scratch for
// this direction: it is valid until the next TranslateV4ToV6 call, so
// a caller that keeps it longer copies it. On error out is left in an
// unspecified state.
func (t *Translator) TranslateV4ToV6(p *packet.IPv4, out *packet.IPv6) error {
	if p.Dst != t.public {
		return ErrNoSession
	}
	if p.TTL <= 1 {
		return ErrHopLimit
	}
	srcV6, err := dns64.Synthesize(t.prefix, p.Src)
	if err != nil {
		return err
	}
	*out = packet.IPv6{HopLimit: p.TTL - 1, Src: srcV6}

	lookup := func(proto uint8, extPort uint16) (*napt.Binding, error) {
		s := t.table.Inbound(proto, extPort)
		if s == nil {
			t.DroppedNoSess++
			return nil, ErrNoSession
		}
		return s, nil
	}

	switch p.Protocol {
	case packet.ProtoUDP:
		var u packet.UDP
		if err := u.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		s, err := lookup(packet.ProtoUDP, u.DstPort)
		if err != nil {
			return err
		}
		out.Dst = s.Src
		out.NextHeader = packet.ProtoUDP
		t.out46 = (&packet.UDP{SrcPort: u.SrcPort, DstPort: s.SrcPort, Payload: u.Payload}).AppendTo(t.out46[:0], out.Src, out.Dst)
	case packet.ProtoTCP:
		var tc packet.TCP
		if err := tc.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		s, err := lookup(packet.ProtoTCP, tc.DstPort)
		if err != nil {
			return err
		}
		if tc.Flags&(packet.TCPFin|packet.TCPRst) != 0 {
			s.Closing = true
		}
		out.Dst = s.Src
		out.NextHeader = packet.ProtoTCP
		tc.DstPort = s.SrcPort
		t.out46 = tc.AppendTo(t.out46[:0], out.Src, out.Dst)
	case packet.ProtoICMP:
		var ic packet.ICMP
		if err := ic.DecodeV4(p.Payload); err != nil {
			return err
		}
		if packet.IsICMPv4Error(ic.Type) {
			return t.translateICMPv4Error(p, &ic, out)
		}
		if ic.Type != packet.ICMPv4EchoReply {
			return fmt.Errorf("%w: ICMPv4 type %d", ErrUnsupported, ic.Type)
		}
		id, seq, data, err := packet.EchoFields(ic.Body)
		if err != nil {
			return err
		}
		s, err := lookup(packet.ProtoICMP, id)
		if err != nil {
			return err
		}
		out.Dst = s.Src
		out.NextHeader = packet.ProtoICMPv6
		t.out46 = (&packet.ICMP{Type: packet.ICMPv6EchoReply, Body: packet.EchoBody(s.SrcPort, seq, data)}).AppendToV6(t.out46[:0], out.Src, out.Dst)
	default:
		return fmt.Errorf("%w: protocol %d", ErrUnsupported, p.Protocol)
	}
	out.Payload = t.out46
	t.TranslatedIn++
	t.BytesIn += uint64(len(p.Payload))
	return nil
}
