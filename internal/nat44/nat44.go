// Package nat44 implements an IPv4 NAPT (RFC 3022 style) with a
// translation log. The testbed's 5G gateway NATs legacy IPv4 traffic,
// and the paper notes OMB M-21-31 requires logging every translation —
// one of Argonne's reasons to avoid NAT and prefer IPv6; the log lets
// the benchmark harness quantify that logging burden.
package nat44

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/nat64/napt"
	"repro/internal/packet"
)

// Errors reported by the translator.
var (
	ErrNoSession      = errors.New("nat44: no session for inbound packet")
	ErrPortsExhausted = errors.New("nat44: port pool exhausted")
	ErrUnsupported    = errors.New("nat44: unsupported protocol")
)

// LogEntry records one translation event per OMB M-21-31.
type LogEntry struct {
	When    time.Time
	Proto   uint8
	Inside  netip.Addr
	InPort  uint16
	Outside netip.Addr
	OutPort uint16
	Dst     netip.Addr
	DstPort uint16
}

// Translator is a stateful NAPT44.
type Translator struct {
	public netip.Addr
	// table holds the sessions, the external port range and the idle
	// timeout.
	table *napt.Table

	// translatorState holds what a run changes outside the table;
	// Checkpoint saves a copy in saved and Restore copies it back
	// (checkpoint.go).
	translatorState
	saved *translatorState

	// outScratch and inScratch hold the transport message of the latest
	// TranslateOut and TranslateIn result (see those methods for its
	// lifetime). They are scratch, so Checkpoint/Restore skip them.
	outScratch []byte
	inScratch  []byte
}

// translatorState is the part of a Translator that a run changes
// outside its session table: the compliance log and the counters.
type translatorState struct {
	// Log holds one entry per new session (not per packet).
	Log []LogEntry

	Translated uint64
	Dropped    uint64
	// BytesOut / BytesIn count translated L4 payload octets per
	// direction (outbound = private→public), for flow-volume accounting.
	BytesOut uint64
	BytesIn  uint64
}

// idleTimeout is how long a session of any protocol lives unused.
const idleTimeout = 5 * time.Minute

// New builds a NAPT44 mapping to the given public address.
func New(public netip.Addr, now func() time.Time) (*Translator, error) {
	if !public.Is4() {
		return nil, fmt.Errorf("nat44: public address %v must be IPv4", public)
	}
	table, err := napt.New(32768, 65535, napt.Timeouts{
		UDP: idleTimeout, TCP: idleTimeout, ICMP: idleTimeout, TCPTrans: idleTimeout,
	}, now)
	if err != nil {
		return nil, err
	}
	return &Translator{public: public, table: table}, nil
}

// Public returns the translator's public address.
func (t *Translator) Public() netip.Addr { return t.public }

// SetPortRange constrains the external port pool (used when NAT44 and
// NAT64 share one public address and must not collide).
func (t *Translator) SetPortRange(min, max uint16) error {
	return t.table.SetPortRange(min, max)
}

// FlushSessions drops every binding at once — the effect of a gateway
// power cycle on translator state. The port cursor survives, as does
// the compliance Log (M-21-31 translation records are exported off-box,
// not kept in translator RAM): external peers may hold connection state
// keyed by pre-flush ports, so those ports are not reused until the
// pool wraps.
func (t *Translator) FlushSessions() { t.table.Flush() }

// SessionCount returns the number of live sessions.
func (t *Translator) SessionCount() int { return t.table.Live(netip.Addr{}) }

// TranslateOut rewrites an outbound private-source packet to the public
// address, logging new sessions, and writes the result into out.
// out.Payload lives in the translator's scratch for this direction: it
// is valid until the next TranslateOut call, so a caller that keeps it
// longer copies it. On error out is left in an unspecified state.
func (t *Translator) TranslateOut(p *packet.IPv4, out *packet.IPv4) error {
	*out = packet.IPv4{TOS: p.TOS, ID: p.ID, DontFrag: p.DontFrag, TTL: p.TTL, Protocol: p.Protocol, Src: t.public, Dst: p.Dst}
	switch p.Protocol {
	case packet.ProtoUDP:
		var u packet.UDP
		if err := u.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		s, err := t.session(p.Protocol, p.Src, u.SrcPort, p.Dst, u.DstPort)
		if err != nil {
			return err
		}
		t.outScratch = (&packet.UDP{SrcPort: s.ExtPort, DstPort: u.DstPort, Payload: u.Payload}).AppendTo(t.outScratch[:0], out.Src, out.Dst)
	case packet.ProtoTCP:
		var tc packet.TCP
		if err := tc.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		s, err := t.session(p.Protocol, p.Src, tc.SrcPort, p.Dst, tc.DstPort)
		if err != nil {
			return err
		}
		tc.SrcPort = s.ExtPort
		t.outScratch = tc.AppendTo(t.outScratch[:0], out.Src, out.Dst)
	case packet.ProtoICMP:
		var ic packet.ICMP
		if err := ic.DecodeV4(p.Payload); err != nil {
			return err
		}
		id, seq, data, err := packet.EchoFields(ic.Body)
		if err != nil {
			return err
		}
		s, err := t.session(p.Protocol, p.Src, id, p.Dst, id)
		if err != nil {
			return err
		}
		t.outScratch = (&packet.ICMP{Type: ic.Type, Code: ic.Code, Body: packet.EchoBody(s.ExtPort, seq, data)}).AppendToV4(t.outScratch[:0])
	default:
		return fmt.Errorf("%w: protocol %d", ErrUnsupported, p.Protocol)
	}
	out.Payload = t.outScratch
	t.Translated++
	t.BytesOut += uint64(len(p.Payload))
	return nil
}

// TranslateIn rewrites an inbound public-destination packet back to the
// private host and writes the result into out. out.Payload lives in the
// translator's scratch for this direction: it is valid until the next
// TranslateIn call, so a caller that keeps it longer copies it. On
// error out is left in an unspecified state.
func (t *Translator) TranslateIn(p *packet.IPv4, out *packet.IPv4) error {
	if p.Dst != t.public {
		t.Dropped++
		return ErrNoSession
	}
	lookup := func(proto uint8, extPort uint16) (*napt.Binding, error) {
		s := t.table.Inbound(proto, extPort)
		if s == nil {
			t.Dropped++
			return nil, ErrNoSession
		}
		return s, nil
	}
	*out = packet.IPv4{TOS: p.TOS, ID: p.ID, DontFrag: p.DontFrag, TTL: p.TTL, Protocol: p.Protocol, Src: p.Src}
	switch p.Protocol {
	case packet.ProtoUDP:
		var u packet.UDP
		if err := u.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		s, err := lookup(p.Protocol, u.DstPort)
		if err != nil {
			return err
		}
		out.Dst = s.Src
		t.inScratch = (&packet.UDP{SrcPort: u.SrcPort, DstPort: s.SrcPort, Payload: u.Payload}).AppendTo(t.inScratch[:0], out.Src, out.Dst)
	case packet.ProtoTCP:
		var tc packet.TCP
		if err := tc.Decode(p.Payload, p.Src, p.Dst); err != nil {
			return err
		}
		s, err := lookup(p.Protocol, tc.DstPort)
		if err != nil {
			return err
		}
		out.Dst = s.Src
		tc.DstPort = s.SrcPort
		t.inScratch = tc.AppendTo(t.inScratch[:0], out.Src, out.Dst)
	case packet.ProtoICMP:
		var ic packet.ICMP
		if err := ic.DecodeV4(p.Payload); err != nil {
			return err
		}
		id, seq, data, err := packet.EchoFields(ic.Body)
		if err != nil {
			return err
		}
		s, err := lookup(p.Protocol, id)
		if err != nil {
			return err
		}
		out.Dst = s.Src
		t.inScratch = (&packet.ICMP{Type: ic.Type, Code: ic.Code, Body: packet.EchoBody(s.SrcPort, seq, data)}).AppendToV4(t.inScratch[:0])
	default:
		return fmt.Errorf("%w: protocol %d", ErrUnsupported, p.Protocol)
	}
	out.Payload = t.inScratch
	t.Translated++
	t.BytesIn += uint64(len(p.Payload))
	return nil
}

// session finds or creates the binding for an outbound flow, logging
// new sessions per M-21-31.
func (t *Translator) session(proto uint8, src netip.Addr, sport uint16, dst netip.Addr, dport uint16) (*napt.Binding, error) {
	if s := t.table.Lookup(proto, src, sport); s != nil {
		return s, nil
	}
	s := t.table.Open(proto, src, sport)
	if s == nil {
		return nil, ErrPortsExhausted
	}
	t.Log = append(t.Log, LogEntry{
		When: s.LastSeen, Proto: proto,
		Inside: src, InPort: sport,
		Outside: t.public, OutPort: s.ExtPort,
		Dst: dst, DstPort: dport,
	})
	return s, nil
}
