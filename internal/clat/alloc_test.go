package clat

import (
	"testing"

	"repro/internal/dns64"
	"repro/internal/packet"
)

// TestTranslateTCPAllocatesNothing pins both directions of the TCP
// path at 0 allocs once the translator's scratch is warm: the result
// goes into a caller-owned value and its segment into the scratch.
func TestTranslateTCPAllocatesNothing(t *testing.T) {
	c := New(hostV6)
	seg := &packet.IPv4{
		Protocol: packet.ProtoTCP, TTL: 64, Src: HostV4, Dst: echoSrvr,
		Payload: (&packet.TCP{SrcPort: 49152, DstPort: 443, Seq: 1, Flags: packet.TCPAck,
			Payload: make([]byte, 1200)}).Marshal(HostV4, echoSrvr),
	}
	srcV6, _ := dns64.Synthesize(dns64.WellKnownPrefix, echoSrvr)
	reply := &packet.IPv6{
		NextHeader: packet.ProtoTCP, HopLimit: 60, Src: srcV6, Dst: hostV6,
		Payload: (&packet.TCP{SrcPort: 443, DstPort: 49152, Seq: 500, Ack: 1201, Flags: packet.TCPAck,
			Payload: make([]byte, 1200)}).Marshal(srcV6, hostV6),
	}
	var out packet.IPv6
	var back packet.IPv4
	if err := c.TranslateV4ToV6(seg, &out); err != nil {
		t.Fatal(err)
	}
	if err := c.TranslateV6ToV4(reply, &back); err != nil {
		t.Fatal(err)
	}
	var err error
	if allocs := testing.AllocsPerRun(100, func() { err = c.TranslateV4ToV6(seg, &out) }); allocs != 0 || err != nil {
		t.Errorf("TranslateV4ToV6 TCP: %.1f allocs (err %v), want 0", allocs, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { err = c.TranslateV6ToV4(reply, &back) }); allocs != 0 || err != nil {
		t.Errorf("TranslateV6ToV4 TCP: %.1f allocs (err %v), want 0", allocs, err)
	}
}
