package netsim

import (
	"runtime"
	"testing"
	"time"
)

// One frame hop — Transmit plus delivery through the event loop — must
// stay amortised allocation-free: no closure per delivery, no interface
// boxing in the heap, and payload copies bump-allocated from the arena.
func TestFrameDeliveryAmortisedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; allocation counts are meaningless")
	}
	net := NewNetwork()
	a := net.NewNIC(nil)
	b := net.NewNIC(FrameHandlerFunc(func(*NIC, Frame) {}))
	net.Connect(a, b)
	payload := make([]byte, 128)
	f := Frame{Dst: b.MAC(), EtherType: EtherTypeIPv4, Payload: payload}

	// Warm up: grow the event queue slice and the first arena chunk.
	for i := 0; i < 16; i++ {
		a.Transmit(f)
	}
	net.Run(0)

	avg := testing.AllocsPerRun(2000, func() {
		a.Transmit(f)
		net.Run(0)
	})
	// A 32 KiB chunk serves ~250 copies of a 128-byte payload, so the
	// amortised cost must be well under one allocation per hop.
	if avg > 0.1 {
		t.Errorf("frame delivery allocates %.3f times per hop, want ~0", avg)
	}

	st := net.Stats()
	if st.PayloadsServed == 0 || st.AllocsAvoided == 0 {
		t.Errorf("arena unused: %+v", st)
	}
	if st.FramesDelivered == 0 || st.QueuePeak == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

// RecycleArena must let retired chunks be reused instead of reallocated.
func TestArenaRecycleReusesChunks(t *testing.T) {
	net := NewNetwork()
	a := net.NewNIC(nil)
	b := net.NewNIC(FrameHandlerFunc(func(*NIC, Frame) {}))
	net.Connect(a, b)
	payload := make([]byte, 1024)

	for round := 0; round < 8; round++ {
		for i := 0; i < 64; i++ { // 64 KiB per round: retires chunks
			a.Transmit(Frame{Dst: b.MAC(), Payload: payload})
		}
		net.Run(0)
		net.RecycleArena()
	}
	st := net.Stats()
	if st.ArenaChunksReused == 0 {
		t.Errorf("no chunk reuse after RecycleArena: %+v", st)
	}
}

// The arena's recycled chunks must survive garbage collections: a world
// that sends the same traffic after every Restore stops allocating
// chunks once its free list has warmed up, however often the collector
// runs in between.
func TestArenaChunksSurviveCollections(t *testing.T) {
	net := NewNetwork()
	a := net.NewNIC(nil)
	b := net.NewNIC(FrameHandlerFunc(func(*NIC, Frame) {}))
	net.Connect(a, b)
	net.Checkpoint()
	payload := make([]byte, 1024)
	var after [5]uint64
	for cycle := range after {
		for i := 0; i < 128; i++ { // 128 KiB: retires four chunks
			a.Transmit(Frame{Dst: b.MAC(), Payload: payload})
		}
		net.Run(0)
		net.Restore()
		runtime.GC()
		runtime.GC()
		after[cycle] = net.Stats().ArenaChunksAllocated
	}
	for cycle := 2; cycle < len(after); cycle++ {
		if after[cycle] != after[1] {
			t.Fatalf("chunks allocated after each cycle = %v: still growing after the second cycle", after)
		}
	}
}

// The hand-rolled 4-ary heap must preserve strict (time, seq) order —
// the determinism contract the whole simulator rests on.
func TestEventQueueOrdering(t *testing.T) {
	net := NewNetwork()
	var got []int
	// Schedule in a scrambled pattern of delays; same-delay events must
	// run in scheduling order.
	delays := []int{5, 1, 3, 1, 5, 0, 3, 1, 0, 5, 2, 4, 2, 0, 4}
	seqPerDelay := map[int]int{}
	for _, d := range delays {
		s := seqPerDelay[d]
		seqPerDelay[d]++
		id := d*100 + s
		net.schedule(time.Duration(d)*time.Millisecond, func() { got = append(got, id) })
	}
	net.Run(0)
	if len(got) != len(delays) {
		t.Fatalf("ran %d events, want %d", len(got), len(delays))
	}
	// Verify sorted by (delay, then scheduling order).
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("events out of order: %v", got)
		}
	}
}
