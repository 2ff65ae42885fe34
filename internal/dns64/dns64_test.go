package dns64

import (
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/dns"
	"repro/internal/dnswire"
)

func q(name string, qtype uint16) dnswire.Question {
	return dnswire.Question{Name: name, Type: qtype, Class: dnswire.ClassIN}
}

func TestSynthesizeWellKnown(t *testing.T) {
	// The paper's Fig. 7: sc24.supercomputing.org A 190.92.158.4 maps to
	// 64:ff9b::be5c:9e04.
	v4 := netip.MustParseAddr("190.92.158.4")
	got, err := Synthesize(WellKnownPrefix, v4)
	if err != nil {
		t.Fatal(err)
	}
	want := netip.MustParseAddr("64:ff9b::be5c:9e04")
	if got != want {
		t.Errorf("Synthesize = %v, want %v", got, want)
	}
}

func TestExtract(t *testing.T) {
	addr := netip.MustParseAddr("64:ff9b::be5c:9e04")
	v4, ok := Extract(WellKnownPrefix, addr)
	if !ok || v4 != netip.MustParseAddr("190.92.158.4") {
		t.Errorf("Extract = %v/%v", v4, ok)
	}
	if _, ok := Extract(WellKnownPrefix, netip.MustParseAddr("2001:db8::1")); ok {
		t.Error("Extract accepted an address outside the prefix")
	}
	if _, ok := Extract(WellKnownPrefix, netip.MustParseAddr("1.2.3.4")); ok {
		t.Error("Extract accepted an IPv4 address")
	}
}

func TestSynthesizeRejectsBadInputs(t *testing.T) {
	if _, err := Synthesize(netip.MustParsePrefix("64:ff9b::/64"), netip.MustParseAddr("1.2.3.4")); err == nil {
		t.Error("non-/96 prefix accepted")
	}
	if _, err := Synthesize(WellKnownPrefix, netip.MustParseAddr("::1")); err == nil {
		t.Error("IPv6 input accepted")
	}
}

// Property: Extract(Synthesize(x)) == x for every IPv4 address.
func TestSynthesizeExtractRoundTrip(t *testing.T) {
	f := func(a [4]byte) bool {
		v4 := netip.AddrFrom4(a)
		syn, err := Synthesize(WellKnownPrefix, v4)
		if err != nil {
			return false
		}
		back, ok := Extract(WellKnownPrefix, syn)
		return ok && back == v4 && WellKnownPrefix.Contains(syn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func upstream() dns.Resolver {
	return dns.NewStatic(
		dnswire.RR{Name: "v4only.example", Type: dnswire.TypeA, TTL: 3600, Addr: netip.MustParseAddr("190.92.158.4")},
		dnswire.RR{Name: "dual.example", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("198.51.100.7")},
		dnswire.RR{Name: "dual.example", Type: dnswire.TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("2001:db8::7")},
		dnswire.RR{Name: "loop.example", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("127.0.0.1")},
	)
}

func TestDNS64SynthesizesForV4Only(t *testing.T) {
	r := New(upstream())
	resp, err := r.Resolve(q("v4only.example", dnswire.TypeAAAA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %+v", resp.Answers)
	}
	rr := resp.Answers[0]
	if rr.Type != dnswire.TypeAAAA || rr.Addr != netip.MustParseAddr("64:ff9b::be5c:9e04") {
		t.Errorf("synthesized = %+v", rr)
	}
	if r.Synthesized != 1 {
		t.Errorf("Synthesized counter = %d", r.Synthesized)
	}
}

func TestDNS64PassesThroughNativeAAAA(t *testing.T) {
	r := New(upstream())
	resp, err := r.Resolve(q("dual.example", dnswire.TypeAAAA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Addr != netip.MustParseAddr("2001:db8::7") {
		t.Errorf("native AAAA not passed through: %+v", resp.Answers)
	}
	if r.Synthesized != 0 {
		t.Error("should not synthesize when native AAAA exists")
	}
}

func TestDNS64PassesThroughAQueries(t *testing.T) {
	r := New(upstream())
	resp, err := r.Resolve(q("dual.example", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Type != dnswire.TypeA {
		t.Errorf("A query mangled: %+v", resp.Answers)
	}
}

func TestDNS64NXDOMAINPassthrough(t *testing.T) {
	r := New(upstream())
	resp, err := r.Resolve(q("missing.example", dnswire.TypeAAAA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("rcode = %s, want NXDOMAIN", dnswire.RcodeString(resp.Rcode))
	}
}

func TestDNS64ExclusionList(t *testing.T) {
	r := New(upstream())
	resp, err := r.Resolve(q("loop.example", dnswire.TypeAAAA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 0 {
		t.Errorf("127.0.0.1 was synthesized: %+v", resp.Answers)
	}
}

func TestDNS64TTLCap(t *testing.T) {
	r := New(upstream())
	r.SynthTTL = 300
	resp, err := r.Resolve(q("v4only.example", dnswire.TypeAAAA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answers[0].TTL != 300 {
		t.Errorf("TTL = %d, want capped 300", resp.Answers[0].TTL)
	}
}

func TestDNS64CNAMEChainPreserved(t *testing.T) {
	z := dns.NewZone("example.org")
	if err := z.Add(dnswire.RR{Name: "www", Type: dnswire.TypeCNAME, Target: "origin.example.org."}); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dnswire.RR{Name: "origin", Type: dnswire.TypeA, TTL: 120, Addr: netip.MustParseAddr("198.51.100.9")}); err != nil {
		t.Fatal(err)
	}
	r := New(z)
	resp, err := r.Resolve(q("www.example.org", dnswire.TypeAAAA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 2 {
		t.Fatalf("answers = %+v", resp.Answers)
	}
	if resp.Answers[0].Type != dnswire.TypeCNAME {
		t.Error("CNAME not preserved in synthesized answer")
	}
	want, _ := Synthesize(WellKnownPrefix, netip.MustParseAddr("198.51.100.9"))
	if resp.Answers[1].Addr != want {
		t.Errorf("synthesized = %v, want %v", resp.Answers[1].Addr, want)
	}
}
