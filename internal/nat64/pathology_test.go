package nat64

import (
	"errors"
	"net/netip"
	"testing"

	"repro/internal/packet"
)

func tcp6(t *testing.T, src netip.Addr, sport, dport uint16, dstV4 netip.Addr, flags uint8) *packet.IPv6 {
	t.Helper()
	dst := synth(t, dstV4)
	return &packet.IPv6{
		NextHeader: packet.ProtoTCP, HopLimit: 64, Src: src, Dst: dst,
		Payload: (&packet.TCP{SrcPort: sport, DstPort: dport, Flags: flags}).Marshal(src, dst),
	}
}

// TestCorruptChecksumsBreaksVerification pins the checksum-corruption
// pathology's physical mechanism: a translated packet leaves with an L4
// checksum that fails receiver-side verification, so the stack drops it
// on parse — no application ever sees the payload.
func TestCorruptChecksumsBreaksVerification(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)
	tr.CorruptChecksums = true

	out, err := v6ToV4(tr, udp6(t, clientV6, 5000, 53, serverV4, "query"))
	if err != nil {
		t.Fatal(err)
	}
	if err := new(packet.UDP).Decode(out.Payload, out.Src, out.Dst); !errors.Is(err, packet.ErrBadChecksum) {
		t.Fatalf("UDP Decode err = %v, want ErrBadChecksum", err)
	}
	if tr.ChecksumsCorrupted != 1 {
		t.Errorf("ChecksumsCorrupted = %d, want 1", tr.ChecksumsCorrupted)
	}

	tc := tcp6(t, clientV6, 5001, 80, serverV4, packet.TCPSyn)
	out, err = v6ToV4(tr, tc)
	if err != nil {
		t.Fatal(err)
	}
	if err := new(packet.TCP).Decode(out.Payload, out.Src, out.Dst); !errors.Is(err, packet.ErrBadChecksum) {
		t.Fatalf("TCP Decode err = %v, want ErrBadChecksum", err)
	}
	if tr.ChecksumsCorrupted != 2 {
		t.Errorf("ChecksumsCorrupted = %d, want 2", tr.ChecksumsCorrupted)
	}
}

// TestCorruptChecksumsOffIsClean guards the baseline: with the knob off
// the same packets verify, so the pathology cannot leak into healthy
// worlds.
func TestCorruptChecksumsOffIsClean(t *testing.T) {
	clk := newClock()
	tr := newT(t, clk)

	out, err := v6ToV4(tr, udp6(t, clientV6, 5000, 53, serverV4, "query"))
	if err != nil {
		t.Fatal(err)
	}
	if err := new(packet.UDP).Decode(out.Payload, out.Src, out.Dst); err != nil {
		t.Fatalf("clean translation failed verification: %v", err)
	}
	if tr.ChecksumsCorrupted != 0 {
		t.Errorf("ChecksumsCorrupted = %d, want 0", tr.ChecksumsCorrupted)
	}
}

// TestCorruptChecksumsZeroSum covers the one TCP checksum a bit flip
// cannot break: a segment whose correct checksum is 0x0000. Its
// complement, 0xffff, is the other ones'-complement zero, so a receiver
// would accept it; the corruption must pick another value.
func TestCorruptChecksumsZeroSum(t *testing.T) {
	dst := synth(t, serverV4)
	seg := func(payload []byte) *packet.IPv6 {
		return &packet.IPv6{
			NextHeader: packet.ProtoTCP, HopLimit: 64, Src: clientV6, Dst: dst,
			Payload: (&packet.TCP{SrcPort: 5001, DstPort: 80, Flags: packet.TCPAck, Payload: payload}).Marshal(clientV6, dst),
		}
	}
	payload := make([]byte, 2)
	out, err := v6ToV4(newT(t, newClock()), seg(payload))
	if err != nil {
		t.Fatal(err)
	}
	// Adding the checksum to a zero payload word makes the sum all ones,
	// so the correct checksum becomes 0x0000.
	payload[0], payload[1] = out.Payload[16], out.Payload[17]
	tr := newT(t, newClock())
	if out, err = v6ToV4(tr, seg(payload)); err != nil {
		t.Fatal(err)
	}
	if out.Payload[16] != 0 || out.Payload[17] != 0 {
		t.Fatalf("setup: checksum %#02x%02x, want 0x0000", out.Payload[16], out.Payload[17])
	}
	tr.CorruptChecksums = true
	if out, err = v6ToV4(tr, seg(payload)); err != nil {
		t.Fatal(err)
	}
	if err := new(packet.TCP).Decode(out.Payload, out.Src, out.Dst); !errors.Is(err, packet.ErrBadChecksum) {
		t.Fatalf("TCP Decode err = %v, want ErrBadChecksum", err)
	}
}
