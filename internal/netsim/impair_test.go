package netsim

import (
	"bytes"
	"testing"
	"time"
)

// impairPair wires two NICs a->b and records what b receives.
func impairPair(t *testing.T) (n *Network, a, b *NIC, got *[]Frame) {
	t.Helper()
	n = NewNetwork()
	rx := &[]Frame{}
	a = n.NewNIC(nil)
	b = n.NewNIC(FrameHandlerFunc(func(_ *NIC, f Frame) {
		f.Payload = bytes.Clone(f.Payload)
		*rx = append(*rx, f)
	}))
	n.Connect(a, b)
	return n, a, b, rx
}

func TestImpairmentZeroValueIsFastPath(t *testing.T) {
	n, a, b, got := impairPair(t)
	a.SetImpairment(Impairment{}, 1) // zero spec: must detach, not attach
	if a.Impaired() || b.Impaired() {
		t.Fatal("zero-value impairment left a NIC impaired")
	}
	for i := 0; i < 10; i++ {
		a.Transmit(Frame{Dst: b.MAC(), EtherType: EtherTypeIPv4, Payload: []byte{byte(i)}})
	}
	n.Run(0)
	if len(*got) != 10 {
		t.Fatalf("delivered %d/10 frames through pristine link", len(*got))
	}
	st := n.Stats()
	if st.FramesImpairLost+st.FramesImpairFlapDropped != 0 {
		t.Fatalf("impairment counters moved on a pristine fabric: %+v", st)
	}
}

func TestImpairmentLossDeterministic(t *testing.T) {
	deliver := func(seed uint64) (int, Stats) {
		n, a, b, got := impairPair(t)
		a.SetImpairment(Impairment{Loss: 0.5}, seed)
		for i := 0; i < 200; i++ {
			a.Transmit(Frame{Dst: b.MAC(), Payload: []byte{byte(i)}})
		}
		n.Run(0)
		return len(*got), n.Stats()
	}
	n1, s1 := deliver(7)
	n2, s2 := deliver(7)
	if n1 != n2 || s1 != s2 {
		t.Fatalf("same seed diverged: %d vs %d frames", n1, n2)
	}
	if n1 == 0 || n1 == 200 {
		t.Fatalf("Loss=0.5 delivered %d/200 frames", n1)
	}
	if s1.FramesImpairLost != uint64(200-n1) {
		t.Fatalf("lost counter %d, want %d", s1.FramesImpairLost, 200-n1)
	}
	if n3, _ := deliver(8); n3 == n1 {
		t.Logf("seeds 7 and 8 delivered the same count (%d) — unlikely but legal", n1)
	}
}

func TestImpairmentTotalLoss(t *testing.T) {
	n, a, b, got := impairPair(t)
	a.SetImpairment(Impairment{Loss: 1}, 1)
	a.Transmit(Frame{Dst: b.MAC(), Payload: []byte("x")})
	n.Run(0)
	if len(*got) != 0 {
		t.Fatalf("Loss=1 delivered %d frames", len(*got))
	}
}

func TestImpairmentJitterDelaysWithinBound(t *testing.T) {
	n, a, b, _ := impairPair(t)
	var at []time.Duration
	start := n.Clock.Now()
	b.SetHandler(FrameHandlerFunc(func(*NIC, Frame) { at = append(at, n.Clock.Now().Sub(start)) }))
	a.SetImpairment(Impairment{Jitter: time.Millisecond}, 5)
	for i := 0; i < 50; i++ {
		a.Transmit(Frame{Dst: b.MAC(), Payload: []byte{byte(i)}})
	}
	n.Run(0)
	if len(at) != 50 {
		t.Fatalf("jitter delivered %d/50 frames", len(at))
	}
	late := 0
	for _, d := range at {
		if d < DefaultLinkLatency || d >= DefaultLinkLatency+time.Millisecond {
			t.Fatalf("frame arrived after %v, outside [%v, %v)", d, DefaultLinkLatency, DefaultLinkLatency+time.Millisecond)
		}
		if d > DefaultLinkLatency {
			late++
		}
	}
	if late == 0 {
		t.Fatal("Jitter=1ms delayed no frame beyond the link latency")
	}
}

func TestImpairmentFlapSchedule(t *testing.T) {
	n, a, b, got := impairPair(t)
	// Link is down for the last 40ms of every 100ms, starting at attach.
	a.SetImpairment(Impairment{FlapEvery: 100 * time.Millisecond, FlapDown: 40 * time.Millisecond}, 1)
	start := n.Clock.Now()
	send := func(at time.Duration, tag byte) {
		n.RunFor(at - n.Clock.Now().Sub(start))
		a.Transmit(Frame{Dst: b.MAC(), Payload: []byte{tag}})
	}
	send(10*time.Millisecond, 'u')  // up phase
	send(80*time.Millisecond, 'd')  // down phase (>= 60ms into the period)
	send(110*time.Millisecond, 'U') // next period, up again
	n.Run(0)
	var kept []byte
	for _, f := range *got {
		kept = append(kept, f.Payload[0])
	}
	if string(kept) != "uU" {
		t.Fatalf("flap delivered %q, want \"uU\"", kept)
	}
	if st := n.Stats(); st.FramesImpairFlapDropped != 1 {
		t.Fatalf("flap-drop counter = %d, want 1", st.FramesImpairFlapDropped)
	}
}

func TestImpairmentRxDirectionUnicastOnly(t *testing.T) {
	n, a, b, got := impairPair(t)
	// Impair the RECEIVER: unicast toward b is subject to b's rx
	// stream, broadcast toward b must pass untouched.
	b.SetImpairment(Impairment{Loss: 1}, 9)
	a.Transmit(Frame{Dst: b.MAC(), Payload: []byte("unicast")})
	a.Transmit(Frame{Dst: Broadcast, Payload: []byte("bcast")})
	n.Run(0)
	if len(*got) != 1 || string((*got)[0].Payload) != "bcast" {
		t.Fatalf("rx impairment: got %d frames (want only the broadcast)", len(*got))
	}
}

func TestSplitmix64KnownValues(t *testing.T) {
	// Reference values for splitmix64(seed=0), e.g. from the public
	// domain reference implementation by Sebastiano Vigna.
	s := splitmix64{state: 0}
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if g := s.next(); g != w {
			t.Fatalf("splitmix64 output %d = %#x, want %#x", i, g, w)
		}
	}
	f := (&splitmix64{state: 0}).float64()
	if f < 0 || f >= 1 {
		t.Fatalf("float64() = %v, want [0,1)", f)
	}
}
