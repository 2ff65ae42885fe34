package dhcp4_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dhcp4"
	"repro/internal/hoststack"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/profiles"
	"repro/internal/testbed"
)

// FuzzParse holds the DHCPv4 parser to two properties: it never panics,
// and parse → marshal → parse is stable. Seeds are the UDP port-67/68
// payloads that cross the managed switch of a default world while
// clients of each DHCP behaviour come up: option 108 accepted, a full
// DORA, and a legacy client that never asks for option 108.
//
// Marshal writes the header fields Message does not hold as fixed
// defaults (htype 1, hlen 6, hops 0, only the broadcast flag bit, zeroed
// sname, file and chaddr padding) and the options sorted by code with
// pads dropped and an End, so the first encoding may differ from the
// input while a parsed message and its re-parse must match exactly.

// goldenDHCP runs the seed world once per test binary and returns the
// distinct DHCPv4 payloads that crossed its switch.
var goldenDHCP = sync.OnceValues(func() ([][]byte, error) {
	seen := make(map[string]bool)
	var msgs [][]byte
	tap := func(_ int, f netsim.Frame) bool {
		var ip packet.IPv4
		var u packet.UDP
		if f.EtherType != netsim.EtherTypeIPv4 || ip.Decode(f.Payload) != nil ||
			ip.Protocol != packet.ProtoUDP || u.Decode(ip.Payload, ip.Src, ip.Dst) != nil {
			return true
		}
		if u.DstPort != dhcp4.ServerPort && u.DstPort != dhcp4.ClientPort {
			return true
		}
		if key := string(u.Payload); !seen[key] {
			seen[key] = true
			msgs = append(msgs, []byte(key))
		}
		return true
	}
	tb, err := testbed.Build(testbed.DefaultTopology(testbed.DefaultOptions()))
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	tb.Switch.AddFilter(tap)
	for _, b := range []hoststack.Behavior{profiles.IOS(), profiles.Windows10(), profiles.WindowsXP()} {
		tb.AddClient("seed-"+b.Name, b)
	}
	return msgs, nil
})

func FuzzParse(f *testing.F) {
	seeds, err := goldenDHCP()
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("golden run produced no DHCPv4 payloads")
	}
	for _, b := range seeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := dhcp4.Parse(b)
		if err != nil {
			return
		}
		wire := m.Marshal()
		again, err := dhcp4.Parse(wire)
		if err != nil {
			t.Fatalf("re-parsing the %d-byte encoding failed: %v", len(wire), err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("parse → marshal → parse changed the message:\nfirst  %+v\nsecond %+v", m, again)
		}
		if w := again.Marshal(); !bytes.Equal(w, wire) {
			t.Fatalf("encoding is not stable:\nfirst  %x\nsecond %x", wire, w)
		}
	})
}
