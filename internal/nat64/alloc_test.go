package nat64

import (
	"testing"

	"repro/internal/packet"
)

// TestTranslateTCPAllocatesNothing pins both directions of the TCP
// path, the one every translated CDN segment takes, at 0 allocs once
// the session exists and the translator's scratch is warm: the result
// goes into a caller-owned value and its segment into the scratch.
func TestTranslateTCPAllocatesNothing(t *testing.T) {
	tr := newT(t, newClock())
	dst := synth(t, serverV4)
	seg := &packet.IPv6{
		NextHeader: packet.ProtoTCP, HopLimit: 64, Src: clientV6, Dst: dst,
		Payload: (&packet.TCP{SrcPort: 49152, DstPort: 80, Seq: 100, Flags: packet.TCPAck,
			Payload: make([]byte, 1200)}).Marshal(clientV6, dst),
	}
	var out packet.IPv4
	if err := tr.TranslateV6ToV4(seg, &out); err != nil {
		t.Fatal(err)
	}
	var tc packet.TCP
	if err := tc.Decode(out.Payload, out.Src, out.Dst); err != nil {
		t.Fatal(err)
	}
	reply := &packet.IPv4{
		Protocol: packet.ProtoTCP, TTL: 60, Src: serverV4, Dst: publicV4,
		Payload: (&packet.TCP{SrcPort: 80, DstPort: tc.SrcPort, Seq: 500, Ack: 1300, Flags: packet.TCPAck,
			Payload: make([]byte, 1200)}).Marshal(serverV4, publicV4),
	}
	var back packet.IPv6
	if err := tr.TranslateV4ToV6(reply, &back); err != nil {
		t.Fatal(err)
	}
	var err error
	if allocs := testing.AllocsPerRun(100, func() { err = tr.TranslateV6ToV4(seg, &out) }); allocs != 0 || err != nil {
		t.Errorf("TranslateV6ToV4 TCP: %.1f allocs (err %v), want 0", allocs, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { err = tr.TranslateV4ToV6(reply, &back) }); allocs != 0 || err != nil {
		t.Errorf("TranslateV4ToV6 TCP: %.1f allocs (err %v), want 0", allocs, err)
	}
}
