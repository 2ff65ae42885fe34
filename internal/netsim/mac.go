// Package netsim provides a deterministic, event-driven layer-2 network
// fabric used as the substrate for the ipv6lab testbed. Devices exchange
// encoded Ethernet-style frames through NICs connected by point-to-point
// links or through learning switches; all activity is driven by a virtual
// clock so tests involving lease or session expiry run instantly and
// deterministically.
//
// A Network runs until Stop, after which every transmission and timer
// arming becomes a silent no-op — worlds can be torn down mid-flight
// without draining queues. Per-NIC fault injection is declarative: set
// an Impairment (loss, jitter, scheduled flaps) with SetImpairment and
// the NIC's traffic degrades according to PRNG streams derived from the
// seed alone, so an impaired run replays bit-identically and shards
// across worlds without divergence. Stats aggregates fabric counters,
// including the impairment loss and flap-drop tallies.
package netsim

import "fmt"

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones broadcast MAC address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the address in colon-separated hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsMulticast reports whether m has the group bit set (includes broadcast).
func (m MAC) IsMulticast() bool { return m[0]&0x01 != 0 }

// IsZero reports whether m is the all-zero address.
func (m MAC) IsZero() bool { return m == MAC{} }

// MACAllocator hands out unique locally-administered unicast MACs in a
// deterministic sequence. The zero value is ready to use.
type MACAllocator struct {
	next uint32
}

// Next returns the next unused MAC address.
func (a *MACAllocator) Next() MAC {
	a.next++
	n := a.next
	// 0x02 = locally administered, unicast.
	return MAC{0x02, 0x00, 0x5e, byte(n >> 16), byte(n >> 8), byte(n)}
}
