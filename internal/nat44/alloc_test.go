package nat44

import (
	"testing"

	"repro/internal/packet"
)

// TestTranslateTCPAllocatesNothing pins both directions of the TCP
// path at 0 allocs once the session exists and the translator's
// scratch is warm: the result goes into a caller-owned value and its
// segment into the scratch.
func TestTranslateTCPAllocatesNothing(t *testing.T) {
	tr := newT(t, newClock())
	seg := &packet.IPv4{
		Protocol: packet.ProtoTCP, TTL: 64, Src: inside, Dst: remote,
		Payload: (&packet.TCP{SrcPort: 5000, DstPort: 80, Seq: 100, Flags: packet.TCPAck,
			Payload: make([]byte, 1200)}).Marshal(inside, remote),
	}
	var out packet.IPv4
	if err := tr.TranslateOut(seg, &out); err != nil {
		t.Fatal(err)
	}
	var tc packet.TCP
	if err := tc.Decode(out.Payload, out.Src, out.Dst); err != nil {
		t.Fatal(err)
	}
	reply := &packet.IPv4{
		Protocol: packet.ProtoTCP, TTL: 60, Src: remote, Dst: public,
		Payload: (&packet.TCP{SrcPort: 80, DstPort: tc.SrcPort, Seq: 500, Ack: 1300, Flags: packet.TCPAck,
			Payload: make([]byte, 1200)}).Marshal(remote, public),
	}
	var back packet.IPv4
	if err := tr.TranslateIn(reply, &back); err != nil {
		t.Fatal(err)
	}
	var err error
	if allocs := testing.AllocsPerRun(100, func() { err = tr.TranslateOut(seg, &out) }); allocs != 0 || err != nil {
		t.Errorf("TranslateOut TCP: %.1f allocs (err %v), want 0", allocs, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { err = tr.TranslateIn(reply, &back) }); allocs != 0 || err != nil {
		t.Errorf("TranslateIn TCP: %.1f allocs (err %v), want 0", allocs, err)
	}
}
