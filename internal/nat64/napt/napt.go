// Package napt is the binding table behind the gateway's two stateful
// translators, NAT44 (RFC 3022 NAPT) and NAT64 (RFC 6146). It owns the
// bindings, keyed both by inside endpoint and by external port, the
// external port range with its round-robin cursor, the idle timeout
// rule and its own Checkpoint/Restore; the translators keep only header
// translation, their counters and their errors.
package napt

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/packet"
)

// Binding is one endpoint-independent mapping (RFC 4787 §4.1, RFC 6146
// §3.5): an inside endpoint and the external port it is translated to.
// For ICMP echo both ports are the echo identifier.
type Binding struct {
	Proto    uint8
	Src      netip.Addr
	SrcPort  uint16
	ExtPort  uint16
	LastSeen time.Time
	// Closing is set once a FIN or RST crossed a TCP binding, switching
	// it to the short TCPTrans timeout.
	Closing bool
}

// Timeouts are the idle times after which a binding expires.
type Timeouts struct {
	UDP, TCP, ICMP time.Duration
	// TCPTrans applies to a closing TCP binding (RFC 6146 §5.2 TCP_TRANS).
	TCPTrans time.Duration
}

// Table is a translator's binding table. Expiry is lazy: an expired
// binding stays in the maps, invisible to every lookup, until its
// external port is handed out again or the table is flushed.
type Table struct {
	now              func() time.Time
	portMin, portMax uint16
	idle             Timeouts

	// tableState holds what a run changes; Checkpoint saves a copy in
	// saved and Restore copies it back.
	tableState
	saved *tableState
}

// tableState is the part of a Table that a run changes: both maps and
// the port cursor. Every binding in out is also in, under its external
// port; in may still hold expired bindings that out has dropped or
// replaced.
type tableState struct {
	out  map[endpoint]*Binding
	in   map[extPort]*Binding
	next uint16
}

type endpoint struct {
	proto uint8
	src   netip.Addr
	port  uint16
}

type extPort struct {
	proto uint8
	port  uint16
}

// New returns an empty table handing out external ports from
// portMin..portMax, starting at portMin.
func New(portMin, portMax uint16, idle Timeouts, now func() time.Time) (*Table, error) {
	t := &Table{now: now, idle: idle, tableState: tableState{
		out: make(map[endpoint]*Binding),
		in:  make(map[extPort]*Binding),
	}}
	if err := t.SetPortRange(portMin, portMax); err != nil {
		return nil, err
	}
	return t, nil
}

// SetPortRange replaces the external port range; the cursor restarts at
// its minimum.
func (t *Table) SetPortRange(portMin, portMax uint16) error {
	if portMin == 0 || portMin > portMax {
		return fmt.Errorf("napt: bad port range %d..%d", portMin, portMax)
	}
	t.portMin, t.portMax, t.next = portMin, portMax, portMin
	return nil
}

// PortRange returns the external port range.
func (t *Table) PortRange() (portMin, portMax uint16) { return t.portMin, t.portMax }

// SetTimeouts replaces the idle timeouts.
func (t *Table) SetTimeouts(idle Timeouts) { t.idle = idle }

// Timeouts returns the idle timeouts.
func (t *Table) Timeouts() Timeouts { return t.idle }

// expired reports whether b has idled past its timeout at now.
func (t *Table) expired(b *Binding, now time.Time) bool {
	idle := t.idle.ICMP
	switch {
	case b.Proto == packet.ProtoTCP && b.Closing:
		idle = t.idle.TCPTrans
	case b.Proto == packet.ProtoTCP:
		idle = t.idle.TCP
	case b.Proto == packet.ProtoUDP:
		idle = t.idle.UDP
	}
	return now.Sub(b.LastSeen) > idle
}

// live returns b refreshed to now if it is a live binding, else nil.
func (t *Table) live(b *Binding) *Binding {
	now := t.now()
	if b == nil || t.expired(b, now) {
		return nil
	}
	b.LastSeen = now
	return b
}

// Lookup returns the live binding of an inside endpoint, refreshed, or
// nil.
func (t *Table) Lookup(proto uint8, src netip.Addr, port uint16) *Binding {
	return t.live(t.out[endpoint{proto, src, port}])
}

// Inbound returns the live binding of an external port, refreshed, or
// nil.
func (t *Table) Inbound(proto uint8, port uint16) *Binding {
	return t.live(t.in[extPort{proto, port}])
}

// Open binds an inside endpoint to the next free external port and
// returns the new binding, or nil when a live binding holds every port
// of the range.
func (t *Table) Open(proto uint8, src netip.Addr, port uint16) *Binding {
	now := t.now()
	for range int(t.portMax) - int(t.portMin) + 1 {
		p := t.next
		if t.next == t.portMax {
			t.next = t.portMin
		} else {
			t.next++
		}
		ext := extPort{proto, p}
		if old := t.in[ext]; old != nil {
			if !t.expired(old, now) {
				continue
			}
			// The old binding's inside endpoint may have re-opened since
			// under another port: its outbound entry then belongs to
			// that live binding and stays.
			if k := (endpoint{proto, old.Src, old.SrcPort}); t.out[k] == old {
				delete(t.out, k)
			}
		}
		b := &Binding{Proto: proto, Src: src, SrcPort: port, ExtPort: p, LastSeen: now}
		t.out[endpoint{proto, src, port}] = b
		t.in[ext] = b
		return b
	}
	return nil
}

// Flush drops every binding — a gateway power cycle. The port cursor
// survives: external peers may still hold state keyed by the pre-flush
// ports (RFC 6146 §3.5.1.1), so those are not reused until the range
// wraps.
func (t *Table) Flush() {
	clear(t.out)
	clear(t.in)
}

// Live returns the number of live bindings held by the inside address
// src, or by every address when src is the zero Addr. It walks the
// table: expiry is lazy, so a cached count would include bindings that
// timed out but were never reclaimed.
func (t *Table) Live(src netip.Addr) int {
	n, now := 0, t.now()
	for _, b := range t.out {
		if (!src.IsValid() || b.Src == src) && !t.expired(b, now) {
			n++
		}
	}
	return n
}

// Checkpoint saves the bindings and the port cursor for Restore. The
// port range and the timeouts are configuration, set before the
// checkpoint, and are not saved.
func (t *Table) Checkpoint() {
	t.saved = new(tableState)
	t.tableState.copyInto(t.saved)
}

// Restore rewinds the table to its checkpoint.
func (t *Table) Restore() { t.saved.copyInto(&t.tableState) }

// copyInto makes dst a copy of s in dst's own maps. Bindings change in
// place and each outbound entry shares its binding with the inbound
// entry for the same external port, so every binding is copied once and
// both of dst's entries point at the copy.
func (s *tableState) copyInto(dst *tableState) {
	out, in := dst.out, dst.in
	if out == nil {
		out, in = make(map[endpoint]*Binding, len(s.out)), make(map[extPort]*Binding, len(s.in))
	}
	clear(out)
	clear(in)
	for k, b := range s.in {
		cp := *b
		in[k] = &cp
	}
	for k, b := range s.out {
		out[k] = in[extPort{k.proto, b.ExtPort}]
	}
	*dst = tableState{out: out, in: in, next: s.next}
}
