package dnswire_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/profiles"
	"repro/internal/testbed"
)

// FuzzParse holds the DNS wire parser to two properties: it never
// panics, and parse → marshal → parse is stable. Seeds are the UDP
// port-53 payloads that cross the managed switch in a wildcard- and an
// RPZ-poisoned world while clients of each address-family class come
// up, browse and look up a name that does not exist.

// maxSeeds caps the seeds taken from the golden run.
const maxSeeds = 64

// goldenDNS runs the seed worlds once per test binary and returns the
// distinct DNS payloads that crossed their switches.
var goldenDNS = sync.OnceValues(func() ([][]byte, error) {
	seen := make(map[string]bool)
	var msgs [][]byte
	tap := func(_ int, f netsim.Frame) bool {
		var ip4 packet.IPv4
		var ip6 packet.IPv6
		var u packet.UDP
		switch {
		case f.EtherType == netsim.EtherTypeIPv4 && ip4.Decode(f.Payload) == nil:
			if ip4.Protocol != packet.ProtoUDP || u.Decode(ip4.Payload, ip4.Src, ip4.Dst) != nil {
				return true
			}
		case f.EtherType == netsim.EtherTypeIPv6 && ip6.Decode(f.Payload) == nil:
			if ip6.NextHeader != packet.ProtoUDP || u.Decode(ip6.Payload, ip6.Src, ip6.Dst) != nil {
				return true
			}
		default:
			return true
		}
		if u.SrcPort != 53 && u.DstPort != 53 {
			return true
		}
		if key := string(u.Payload); !seen[key] {
			seen[key] = true
			msgs = append(msgs, []byte(key))
		}
		return true
	}
	for _, policy := range []testbed.PoisonPolicy{testbed.PoisonWildcard, testbed.PoisonRPZ} {
		opt := testbed.DefaultOptions()
		opt.Poison = policy
		tb, err := testbed.Build(testbed.DefaultTopology(opt))
		if err != nil {
			return nil, err
		}
		tb.Switch.AddFilter(tap)
		for _, b := range []hoststack.Behavior{profiles.IOS(), profiles.WindowsXP(), profiles.Windows11()} {
			c := tb.AddClient("seed-"+b.Name, b)
			_, _ = httpsim.Browse(c, "http://sc24.supercomputing.org/")
			_, _ = c.Lookup("no-such-host.example")
		}
		tb.Close()
	}
	return msgs, nil
})

// nestedNames is a regression seed: an uncompressed query whose 127
// questions are a., a.a., a.a.a., … up to the longest legal name.
// Marshal compresses each name onto the one before it, so parsing the
// last name of that encoding follows 126 pointers; the parser's hop cap
// must admit that many for the encoder's own output to parse.
func nestedNames() []byte {
	const n = dnswire.MaxNameLen / 2
	b := []byte{0, 1, 0, 0, 0, n, 0, 0, 0, 0, 0, 0}
	for k := 1; k <= n; k++ {
		for i := 0; i < k; i++ {
			b = append(b, 1, 'a')
		}
		b = append(b, 0, 0, byte(dnswire.TypeA), 0, byte(dnswire.ClassIN))
	}
	return b
}

// canonical applies what marshal does to a parsed message's names and
// classes (names are canonicalized, a zero class goes out as IN),
// predicting what re-parsing the encoding yields.
func canonical(m *dnswire.Message) {
	for i := range m.Questions {
		q := &m.Questions[i]
		q.Name = dnswire.CanonicalName(q.Name)
		if q.Class == 0 {
			q.Class = dnswire.ClassIN
		}
	}
	for _, sec := range [][]dnswire.RR{m.Answers, m.Authorities, m.Additionals} {
		for i := range sec {
			rr := &sec[i]
			rr.Name = dnswire.CanonicalName(rr.Name)
			if rr.Class == 0 {
				rr.Class = dnswire.ClassIN
			}
			switch rr.Type {
			case dnswire.TypeCNAME, dnswire.TypePTR, dnswire.TypeNS:
				rr.Target = dnswire.CanonicalName(rr.Target)
			case dnswire.TypeSOA:
				rr.SOA.MName = dnswire.CanonicalName(rr.SOA.MName)
				rr.SOA.RName = dnswire.CanonicalName(rr.SOA.RName)
			}
		}
	}
}

func FuzzParse(f *testing.F) {
	seeds, err := goldenDNS()
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("golden run produced no DNS payloads")
	}
	for _, b := range seeds[:min(len(seeds), maxSeeds)] {
		f.Add(b)
	}
	f.Add(nestedNames())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := dnswire.Parse(b)
		if err != nil {
			return
		}
		wire, err := m.Marshal()
		if err != nil {
			// Parse accepts label bytes Marshal cannot encode back: a dot
			// that leaves an empty label, or non-ASCII bytes whose
			// canonical form outgrows the label or name limit.
			return
		}
		again, err := dnswire.Parse(wire)
		if err != nil {
			t.Fatalf("re-parsing the %d-byte encoding failed: %v", len(wire), err)
		}
		canonical(m)
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("parse → marshal → parse changed the message:\nfirst  %+v\nsecond %+v", m, again)
		}
		if w, err := again.Marshal(); err != nil || !bytes.Equal(w, wire) {
			t.Fatalf("encoding is not stable (err %v):\nfirst  %x\nsecond %x", err, wire, w)
		}
	})
}
