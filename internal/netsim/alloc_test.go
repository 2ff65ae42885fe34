package netsim

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// One frame hop — Transmit plus delivery through the event loop — must
// stay amortised allocation-free: no closure per delivery, no interface
// boxing in the heap, and payload copies in buffers the arena reuses.
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

	// Warm up: grow the event queue slice and the arena's free list.
	for i := 0; i < 16; i++ {
		a.Transmit(f)
	}
	net.Run(0)

	avg := testing.AllocsPerRun(2000, func() {
		a.Transmit(f)
		net.Run(0)
	})
	// Each hop reuses the buffer the previous hop released, so the
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

// A payload buffer lives for one delivery, so a long stream through
// one link reuses the few buffers its largest burst needs, however many
// bytes it carries and however often the collector runs meanwhile.
func TestArenaReusesBuffersWithinRun(t *testing.T) {
	const (
		burst = 8
		total = 2 << 20
	)
	net := NewNetwork()
	a := net.NewNIC(nil)
	got := 0
	b := net.NewNIC(FrameHandlerFunc(func(_ *NIC, f Frame) { got += len(f.Payload) }))
	net.Connect(a, b)
	payload := make([]byte, 1500)
	sent, bursts := 0, 0
	var send func()
	send = func() {
		for i := 0; i < burst && sent < total; i++ {
			a.Transmit(Frame{Dst: b.MAC(), Payload: payload})
			sent += len(payload)
		}
		if bursts++; bursts%64 == 0 {
			runtime.GC()
		}
		if sent < total {
			net.Clock.AfterFunc(time.Millisecond, send)
		}
	}
	send()
	net.Run(0)
	if got != sent {
		t.Fatalf("delivered %d bytes, want %d", got, sent)
	}
	st := net.Stats()
	if st.PayloadBuffers != burst {
		t.Errorf("streaming %d bytes in %d-frame bursts allocated %d payload buffers, want %d",
			sent, burst, st.PayloadBuffers, burst)
	}
	if st.AllocsAvoided != st.PayloadsServed-st.PayloadBuffers {
		t.Errorf("AllocsAvoided = %d, want served %d - allocated %d",
			st.AllocsAvoided, st.PayloadsServed, st.PayloadBuffers)
	}
}

// The buffers one Run's deliveries released are what the next Run's
// frames are copied into: rounds of the same traffic allocate buffers
// only in the first round, with no call between the rounds.
func TestArenaRecycleReusesChunks(t *testing.T) {
	const (
		rounds = 8
		frames = 64
	)
	net := NewNetwork()
	a := net.NewNIC(nil)
	b := net.NewNIC(FrameHandlerFunc(func(*NIC, Frame) {}))
	net.Connect(a, b)
	payload := make([]byte, 1024)

	for round := 0; round < rounds; round++ {
		for i := 0; i < frames; i++ { // all 64 in flight before the Run
			a.Transmit(Frame{Dst: b.MAC(), Payload: payload})
		}
		net.Run(0)
	}
	st := net.Stats()
	if st.PayloadBuffers != frames {
		t.Errorf("%d rounds of %d frames allocated %d payload buffers, want %d",
			rounds, frames, st.PayloadBuffers, frames)
	}
	if want := uint64((rounds - 1) * frames); st.AllocsAvoided != want {
		t.Errorf("AllocsAvoided = %d, want %d: later rounds did not reuse the first round's buffers",
			st.AllocsAvoided, want)
	}
}

// The free lists must survive garbage collections and Restore: a world
// that sends the same traffic after every Restore allocates buffers in
// its first cycle only, however often the collector runs in between.
func TestArenaChunksSurviveCollections(t *testing.T) {
	const frames = 128
	net := NewNetwork()
	a := net.NewNIC(nil)
	b := net.NewNIC(FrameHandlerFunc(func(*NIC, Frame) {}))
	net.Connect(a, b)
	net.Checkpoint()
	payload := make([]byte, 1024)
	var after [5]uint64
	for cycle := range after {
		for i := 0; i < frames; i++ {
			a.Transmit(Frame{Dst: b.MAC(), Payload: payload})
		}
		net.Run(0)
		net.Restore()
		runtime.GC()
		runtime.GC()
		after[cycle] = net.Stats().PayloadBuffers
	}
	for cycle := range after {
		if after[cycle] != frames {
			t.Fatalf("payload buffers allocated after each cycle = %v, want %d throughout", after, frames)
		}
	}
}

// A handler that keeps a payload past its delivery breaks the ownership
// rule (see Frame). In a test binary the arena zeroes every buffer it
// takes back, so the kept view reads garbage at once instead of stale
// bytes that happen to be right until the buffer is reused.
func TestKeptPayloadIsScribbledAfterDelivery(t *testing.T) {
	net := NewNetwork()
	sw := NewSwitch(net)
	src := net.NewNIC(nil)
	var kept [][]byte
	keep := FrameHandlerFunc(func(_ *NIC, f Frame) {
		if cap(f.Payload) != len(f.Payload) {
			t.Errorf("delivered payload has capacity %d past its length %d", cap(f.Payload), len(f.Payload))
		}
		if string(f.Payload) != "hello" {
			t.Errorf("payload during delivery = %q, want %q", f.Payload, "hello")
		}
		kept = append(kept, f.Payload)
	})
	sw.AttachPort(src)
	sw.AttachPort(net.NewNIC(keep))
	sw.AttachPort(net.NewNIC(keep))
	src.Transmit(Frame{Dst: Broadcast, EtherType: EtherTypeIPv4, Payload: []byte("hello")})
	net.Run(0)
	if len(kept) != 2 {
		t.Fatalf("kept %d payloads, want 2", len(kept))
	}
	for i, p := range kept {
		if !bytes.Equal(p, make([]byte, len("hello"))) {
			t.Errorf("receiver %d: kept payload reads %q after its delivery, want it scribbled", i, p)
		}
	}
}

// The hand-rolled 4-ary heap must preserve strict (time, seq) order —
// the determinism contract the whole simulator rests on.
func TestEventQueueOrdering(t *testing.T) {
	net := NewNetwork()
	var got []int
	dst := net.NewNIC(FrameHandlerFunc(func(_ *NIC, f Frame) { got = append(got, int(f.EtherType)) }))
	// Queue frames in a scrambled pattern of delays, each carrying its
	// id in the EtherType; same-delay frames must arrive in queueing
	// order.
	delays := []int{5, 1, 3, 1, 5, 0, 3, 1, 0, 5, 2, 4, 2, 0, 4}
	seqPerDelay := map[int]int{}
	for _, d := range delays {
		s := seqPerDelay[d]
		seqPerDelay[d]++
		id := d*100 + s
		net.scheduleFrame(time.Duration(d)*time.Millisecond, dst, Frame{EtherType: uint16(id)})
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
