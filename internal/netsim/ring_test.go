package netsim

import (
	"fmt"
	"testing"
	"time"
)

// ringWorld is a four-host fixture (two point-to-point links) whose
// handlers record every delivery into one global, order-sensitive log
// and cascade bounded replies, so the observable trace captures the
// exact interleaving of ring drains, legacy events and timers.
type ringWorld struct {
	net  *Network
	nics map[string]*NIC
	log  []string
}

// newRingWorld builds the fixture with the ring fast path on or off.
// Handlers reply to tags divisible by three (tag*2+1, while small), so
// bursts trigger same-instant cascades in both directions of a link.
func newRingWorld(rings bool) *ringWorld {
	w := &ringWorld{net: NewNetwork(), nics: make(map[string]*NIC)}
	w.net.SetUnicastRings(rings)
	mk := func(name string) *NIC {
		nc := w.net.NewNIC(name, FrameHandlerFunc(func(self *NIC, f Frame) {
			tag := int(f.Payload[0])<<8 | int(f.Payload[1])
			w.log = append(w.log, fmt.Sprintf("%s %d @%s", self.Name(), tag, w.net.Clock.Now().Format("15:04:05.000000")))
			if tag%3 == 0 && tag < 120 {
				w.send(self, tag*2+1)
			}
		}))
		w.nics[name] = nc
		return nc
	}
	w.net.Connect(mk("a"), mk("b"))
	w.net.Connect(mk("c"), mk("d"))
	return w
}

// send transmits one tagged frame out nc to its link peer.
func (w *ringWorld) send(nc *NIC, tag int) {
	nc.Transmit(Frame{
		Dst:       nc.peer.MAC(),
		EtherType: EtherTypeIPv6,
		Payload:   []byte{byte(tag >> 8), byte(tag), 'x'},
	})
}

// drive runs the scripted workload: same-instant bursts of varying
// width on both links (small enough to stay ringed, wide enough to
// force ring growth), timers colliding with in-flight deliveries, and
// cascaded replies from the handlers themselves.
func (w *ringWorld) drive() {
	a, c, d := w.nics["a"], w.nics["c"], w.nics["d"]
	for i := 0; i < 12; i++ { // wider than ringInitCapacity: forces growth
		w.send(a, 300+i)
	}
	w.send(c, 3) // cascades: 3 -> 7 is not %3; 3*2+1=7 stops. Use 6 below for depth.
	w.send(c, 6)
	w.send(d, 9)
	// Timers landing between and exactly on link-latency boundaries, some
	// of which transmit more frames (timer interrupting a drain batch).
	w.net.Clock.AfterFunc(DefaultLinkLatency/2, func() { w.send(d, 400) })
	w.net.Clock.AfterFunc(DefaultLinkLatency, func() { w.send(a, 401) })
	w.net.Clock.AfterFunc(3*DefaultLinkLatency/2, func() {
		for i := 0; i < 5; i++ {
			w.send(c, 500+i)
		}
	})
	w.net.Run(0)
	// A second wave on the warmed-up rings, after virtual time moved.
	w.net.RunFor(time.Millisecond)
	for i := 0; i < 9; i++ {
		w.send(d, 600+i)
		w.send(a, 700+i)
	}
	w.net.Run(0)
}

// TestUnicastRingMatchesLegacyOrder is the ordering oracle the ring
// design is pinned against: the same scripted workload — bursts,
// cascaded replies, colliding timers — must produce a byte-identical
// global delivery log with rings on and off.
func TestUnicastRingMatchesLegacyOrder(t *testing.T) {
	legacy := newRingWorld(false)
	legacy.drive()
	ringed := newRingWorld(true)
	ringed.drive()

	if len(legacy.log) == 0 {
		t.Fatal("workload delivered nothing")
	}
	if len(ringed.log) != len(legacy.log) {
		t.Fatalf("rings delivered %d frames, legacy %d", len(ringed.log), len(legacy.log))
	}
	for i := range legacy.log {
		if ringed.log[i] != legacy.log[i] {
			t.Fatalf("delivery %d diverges:\n  rings:  %s\n  legacy: %s", i, ringed.log[i], legacy.log[i])
		}
	}

	st := ringed.net.Stats()
	if st.UnicastRingFrames == 0 {
		t.Fatal("ring world never used the ring path")
	}
	if st.UnicastRingFrames != st.FramesDelivered {
		t.Errorf("only %d of %d frames rode rings (no link is impaired or overflowing)",
			st.UnicastRingFrames, st.FramesDelivered)
	}
	if lst := legacy.net.Stats(); lst.UnicastRingFrames != 0 || lst.UnicastRingBatches != 0 {
		t.Errorf("legacy world touched the ring path: %+v", lst)
	}
}

// TestRingOverflowBackpressureOracle pushes a single-instant burst past
// ringMaxCapacity on one link: the first 128 frames ride the ring, the
// rest become their own heap events (backpressure, not loss), and the
// delivery order still matches the per-frame oracle exactly.
func TestRingOverflowBackpressureOracle(t *testing.T) {
	const burst = ringMaxCapacity + 72

	run := func(rings bool) ([]int, Stats) {
		net := NewNetwork()
		net.SetUnicastRings(rings)
		var got []int
		rx := net.NewNIC("rx", FrameHandlerFunc(func(_ *NIC, f Frame) {
			got = append(got, int(f.Payload[0])<<8|int(f.Payload[1]))
		}))
		tx := net.NewNIC("tx", nil)
		net.Connect(tx, rx)
		for i := 0; i < burst; i++ {
			tx.Transmit(Frame{Dst: rx.MAC(), EtherType: EtherTypeIPv6, Payload: []byte{byte(i >> 8), byte(i)}})
		}
		net.Run(0)
		return got, net.Stats()
	}

	want, _ := run(false)
	got, st := run(true)
	if len(want) != burst || len(got) != burst {
		t.Fatalf("delivered %d ringed / %d legacy frames, want %d", len(got), len(want), burst)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d: ring path got tag %d, oracle %d", i, got[i], want[i])
		}
	}
	if st.UnicastRingOverflows != burst-ringMaxCapacity {
		t.Errorf("UnicastRingOverflows = %d, want %d", st.UnicastRingOverflows, burst-ringMaxCapacity)
	}
	if st.UnicastRingFrames != ringMaxCapacity {
		t.Errorf("UnicastRingFrames = %d, want %d", st.UnicastRingFrames, ringMaxCapacity)
	}
	if st.FramesDelivered != burst {
		t.Errorf("FramesDelivered = %d, want %d", st.FramesDelivered, burst)
	}
}

// TestRingGrowth pins the geometric growth path: a ring starts at
// ringInitCapacity, doubles under a same-instant burst without
// reordering or dropping anything, and tops out at ringMaxCapacity.
func TestRingGrowth(t *testing.T) {
	net := NewNetwork()
	var got []int
	rx := net.NewNIC("rx", FrameHandlerFunc(func(_ *NIC, f Frame) {
		got = append(got, int(f.Payload[0])<<8|int(f.Payload[1]))
	}))
	tx := net.NewNIC("tx", nil)
	net.Connect(tx, rx)

	send := func(n int) {
		for i := 0; i < n; i++ {
			tx.Transmit(Frame{Dst: rx.MAC(), EtherType: EtherTypeIPv6, Payload: []byte{byte(i >> 8), byte(i)}})
		}
	}
	send(1)
	net.Run(0)
	if len(rx.ring) != ringInitCapacity {
		t.Fatalf("fresh ring has %d slots, want %d", len(rx.ring), ringInitCapacity)
	}
	got = nil
	send(ringInitCapacity + 1) // one past the initial capacity: must grow, not overflow
	net.Run(0)
	if len(rx.ring) != 2*ringInitCapacity {
		t.Errorf("ring grew to %d slots, want %d", len(rx.ring), 2*ringInitCapacity)
	}
	for i, tag := range got {
		if tag != i {
			t.Fatalf("delivery %d has tag %d after growth", i, tag)
		}
	}
	if st := net.Stats(); st.UnicastRingOverflows != 0 {
		t.Errorf("growth burst overflowed %d frames", st.UnicastRingOverflows)
	}
}

// TestReleaseNIC pins the ring bookkeeping a parked NIC leaves behind:
// a NIC with a frame still queued stays registered and receives it; an
// idle one is dropped, and if it receives again it registers a new ring.
func TestReleaseNIC(t *testing.T) {
	net := NewNetwork()
	got := 0
	rx := net.NewNIC("rx", FrameHandlerFunc(func(*NIC, Frame) { got++ }))
	tx := net.NewNIC("tx", nil)
	net.Connect(tx, rx)
	send := func() { tx.Transmit(Frame{Dst: rx.MAC(), EtherType: EtherTypeIPv6, Payload: []byte{1}}) }
	registered := func() bool {
		for _, nc := range net.ringNICs {
			if nc == rx {
				return true
			}
		}
		return false
	}

	send()
	net.ReleaseNIC(rx)
	if !registered() {
		t.Fatal("ReleaseNIC dropped a NIC with a frame still queued")
	}
	net.Run(0)
	if got != 1 {
		t.Fatalf("delivered %d frames, want the queued one", got)
	}
	net.ReleaseNIC(rx)
	if registered() || rx.ring != nil {
		t.Fatal("an idle released NIC is still in the ring list")
	}
	send()
	net.Run(0)
	if got != 2 || !registered() {
		t.Errorf("after release: delivered %d frames (want 2), registered=%v (want true)", got, registered())
	}
}
