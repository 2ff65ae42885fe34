package netsim

import "time"

// Impairment describes deterministic fault injection for one link
// endpoint. The zero value disables every knob, and a NIC with a
// zero-value (or never-set) impairment transmits through the exact
// allocation-free fast path it always has — impaired and pristine
// worlds differ only on links that actually carry an impairment.
//
// All probabilistic decisions are driven by a splitmix64 stream seeded
// via SetImpairment, so a given (seed, spec, traffic) triple replays
// identically — see DESIGN.md §3b for the determinism contract.
type Impairment struct {
	// Loss is the probability in [0,1] that an eligible frame is
	// silently discarded.
	Loss float64
	// Jitter adds a uniform random delay in [0, Jitter) to every
	// eligible frame.
	Jitter time.Duration
	// FlapEvery periodically takes the link down: within every
	// FlapEvery interval (measured from the moment the impairment was
	// attached), the final FlapDown of it drops all eligible frames.
	// Flapping is purely time-driven and consumes no PRNG values.
	FlapEvery time.Duration
	// FlapDown is the down portion of each FlapEvery interval.
	FlapDown time.Duration
}

// Enabled reports whether any impairment knob is active.
func (im Impairment) Enabled() bool {
	return im.Loss > 0 || im.Jitter > 0 || (im.FlapEvery > 0 && im.FlapDown > 0)
}

// splitmix64 is the PRNG behind every impairment decision: tiny,
// seedable, and with output identical across platforms, which is what
// keeps impaired runs byte-reproducible and shardable. The same
// finalizer is used by scenario's shard-seed derivation.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *splitmix64) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// impairState is the per-NIC runtime for an attached Impairment. The
// transmit and receive directions draw from independent PRNG streams so
// the fate of a client's own frames never depends on how much traffic
// happens to be delivered to it, and vice versa — that independence is
// what makes per-client impairment position-independent under sharding.
type impairState struct {
	spec     Impairment
	tx, rx   splitmix64
	attached time.Time
}

// rxStreamOffset separates the receive-direction PRNG stream from the
// transmit stream derived from the same seed.
const rxStreamOffset = 0x632be59bd9b4e019

// SetImpairment attaches (or, for a zero spec, detaches) fault
// injection on this NIC. Two traffic directions are affected:
//
//   - every frame this NIC transmits (decided by the "tx" PRNG stream);
//   - every unicast frame addressed to this NIC's MAC that a pristine
//     peer transmits toward it (decided by the "rx" stream).
//
// Broadcast and multicast deliveries *to* an impaired NIC are never
// impaired and never consume PRNG values: flooded traffic reaches an
// unpredictable set of ports, so tying PRNG consumption to it would
// make the stream depend on unrelated devices. Periodic RA beacons are
// therefore modelled as reliable; unicast (and the impaired client's
// own broadcasts, e.g. DHCP DISCOVER) are where loss bites. For the
// same reason a switch's flood fan-out consults no impairment, not even
// one set on the switch-side port it egresses: only a port's unicast
// transmits draw from its streams.
//
// The flap schedule is anchored at the virtual time of this call.
func (nc *NIC) SetImpairment(spec Impairment, seed uint64) {
	if !spec.Enabled() {
		nc.impair = nil
		return
	}
	nc.impair = &impairState{
		spec:     spec,
		tx:       splitmix64{state: seed},
		rx:       splitmix64{state: seed + rxStreamOffset},
		attached: nc.net.Clock.Now(),
	}
}

// Impaired reports whether fault injection is attached to this NIC.
func (nc *NIC) Impaired() bool { return nc.impair != nil }

// flapDown reports whether the time-driven flap schedule has the link
// down at virtual time now.
func (st *impairState) flapDown(now time.Time) bool {
	if st.spec.FlapEvery <= 0 || st.spec.FlapDown <= 0 {
		return false
	}
	phase := now.Sub(st.attached) % st.spec.FlapEvery
	return phase >= st.spec.FlapEvery-st.spec.FlapDown
}

// transmitImpaired replaces the fast-path schedule for frames subject
// to st. The PRNG draw order per surviving frame is fixed — loss, then
// jitter — so a spec change never silently shifts which draw decides
// what.
func (nc *NIC) transmitImpaired(peer *NIC, f Frame, st *impairState, rng *splitmix64) {
	n := nc.net
	if st.flapDown(n.Clock.Now()) {
		n.impairFlapDropped++
		return
	}
	if st.spec.Loss > 0 && rng.float64() < st.spec.Loss {
		n.impairLost++
		return
	}
	delay := DefaultLinkLatency
	if st.spec.Jitter > 0 {
		delay += time.Duration(rng.float64() * float64(st.spec.Jitter))
	}
	f.Payload = n.arena.copyOf(f.Payload)
	n.scheduleFrame(delay, peer, f)
}
