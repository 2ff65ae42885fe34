package dnspoison

import (
	"net/netip"
	"testing"

	"repro/internal/dns"
	"repro/internal/dns64"
	"repro/internal/dnswire"
)

func q(name string, qtype uint16) dnswire.Question {
	return dnswire.Question{Name: name, Type: qtype, Class: dnswire.ClassIN}
}

// healthy returns an upstream resembling the testbed's healthy DNS64:
// a zone with real names plus DNS64 synthesis.
func healthy() dns.Resolver {
	z := dns.NewZone("example")
	z.MustAdd(dnswire.RR{Name: "v4only", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("190.92.158.4")})
	z.MustAdd(dnswire.RR{Name: "dual", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("198.51.100.7")})
	z.MustAdd(dnswire.RR{Name: "dual", Type: dnswire.TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("2001:db8::7")})
	return dns64.New(z)
}

func TestWildcardPoisonsEveryAQuery(t *testing.T) {
	w := NewWildcard(healthy())
	for _, name := range []string{"v4only.example", "dual.example", "definitely-missing.example", "vpn.anl.gov.rfc8925.com"} {
		resp, err := w.Resolve(q(name, dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 1 {
			t.Fatalf("%s: %+v", name, resp)
		}
		if resp.Answers[0].Addr != DefaultRedirectV4 {
			t.Errorf("%s: poisoned A = %v, want %v", name, resp.Answers[0].Addr, DefaultRedirectV4)
		}
	}
	if w.Poisoned != 4 {
		t.Errorf("Poisoned = %d, want 4", w.Poisoned)
	}
}

func TestWildcardForwardsAAAAUnmodified(t *testing.T) {
	w := NewWildcard(healthy())
	resp, err := w.Resolve(q("dual.example", dnswire.TypeAAAA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Addr != netip.MustParseAddr("2001:db8::7") {
		t.Errorf("AAAA forwarded wrong: %+v", resp.Answers)
	}
	// DNS64 synthesis must also survive the poisoner (paper Fig. 7: the
	// poisoned server "continues to provide valid IPv6 AAAA answers").
	resp, err = w.Resolve(q("v4only.example", dnswire.TypeAAAA))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := dns64.Synthesize(dns64.WellKnownPrefix, netip.MustParseAddr("190.92.158.4"))
	if len(resp.Answers) != 1 || resp.Answers[0].Addr != want {
		t.Errorf("synthesized AAAA through poisoner = %+v, want %v", resp.Answers, want)
	}
	if w.Poisoned != 0 || w.Forwarded != 2 {
		t.Errorf("counters poisoned=%d forwarded=%d", w.Poisoned, w.Forwarded)
	}
}

func TestWildcardAnswersNonexistentNames(t *testing.T) {
	// The Fig. 9 pathology: "vpn.anl.gov.rfc8925.com" does not exist, yet
	// the wildcard answers it — nslookup sees a bogus A record.
	w := NewWildcard(healthy())
	resp, err := w.Resolve(q("vpn.anl.gov.rfc8925.com", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rcode == dnswire.RcodeNXDomain || len(resp.Answers) != 1 {
		t.Fatalf("wildcard should fabricate answers for non-existent names: %+v", resp)
	}
}

func TestWildcardExempt(t *testing.T) {
	w := NewWildcard(healthy())
	w.Exempt = map[string]bool{"v4only.example.": true}
	resp, err := w.Resolve(q("v4only.example", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answers[0].Addr != netip.MustParseAddr("190.92.158.4") {
		t.Errorf("exempt name was poisoned: %+v", resp.Answers)
	}
}

func TestWildcardNoUpstream(t *testing.T) {
	w := NewWildcard(nil)
	if _, err := w.Resolve(q("x.test", dnswire.TypeAAAA)); err == nil {
		t.Error("AAAA without upstream should error")
	}
	// A queries never need the upstream.
	if _, err := w.Resolve(q("x.test", dnswire.TypeA)); err != nil {
		t.Errorf("A query should not require upstream: %v", err)
	}
}

func TestRPZPoisonsExistingNames(t *testing.T) {
	r := NewRPZ(healthy())
	resp, err := r.Resolve(q("v4only.example", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Addr != DefaultRedirectV4 {
		t.Errorf("existing name not poisoned: %+v", resp.Answers)
	}
	if r.Poisoned != 1 {
		t.Errorf("Poisoned = %d", r.Poisoned)
	}
}

func TestRPZPreservesNXDomain(t *testing.T) {
	// The fix for the Fig. 9 pathology: non-existent names stay NXDOMAIN.
	r := NewRPZ(healthy())
	resp, err := r.Resolve(q("vpn.anl.gov.rfc8925.com", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rcode != dnswire.RcodeNXDomain || len(resp.Answers) != 0 {
		t.Fatalf("RPZ fabricated an answer for a non-existent name: %+v", resp)
	}
	if r.PassedNXDomain != 1 {
		t.Errorf("PassedNXDomain = %d", r.PassedNXDomain)
	}
}

func TestRPZForwardsAAAA(t *testing.T) {
	r := NewRPZ(healthy())
	resp, err := r.Resolve(q("dual.example", dnswire.TypeAAAA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Addr != netip.MustParseAddr("2001:db8::7") {
		t.Errorf("AAAA forwarded wrong: %+v", resp.Answers)
	}
}

func TestRPZCostsOneUpstreamQueryPerA(t *testing.T) {
	log := &dns.QueryLog{Inner: healthy()}
	r := NewRPZ(log)
	w := NewWildcard(&dns.QueryLog{Inner: healthy()})

	for i := 0; i < 10; i++ {
		if _, err := r.Resolve(q("v4only.example", dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Resolve(q("v4only.example", dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	// RPZ pays an upstream existence check per A query; wildcard pays none.
	if log.Len() != 10 {
		t.Errorf("RPZ upstream queries = %d, want 10", log.Len())
	}
	if w.Forwarded != 0 {
		t.Errorf("wildcard forwarded %d A queries upstream, want 0", w.Forwarded)
	}
}

func TestRPZExempt(t *testing.T) {
	r := NewRPZ(healthy())
	r.Exempt = map[string]bool{"v4only.example.": true}
	resp, err := r.Resolve(q("v4only.example", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answers[0].Addr != netip.MustParseAddr("190.92.158.4") {
		t.Errorf("exempt name was poisoned: %+v", resp.Answers)
	}
}

func TestRPZNoUpstream(t *testing.T) {
	r := NewRPZ(nil)
	if _, err := r.Resolve(q("x.test", dnswire.TypeA)); err == nil {
		t.Error("RPZ without upstream should error")
	}
}

func TestPoisonersDivergeOnlyOnNonexistentNames(t *testing.T) {
	// Correctness ablation (ablA): over a mixed query set, wildcard and
	// RPZ agree on existing names and disagree exactly on NXDOMAIN names.
	names := map[string]bool{ // name -> exists
		"v4only.example": true,
		"dual.example":   true,
		"ghost1.example": false,
		"ghost2.example": false,
	}
	w := NewWildcard(healthy())
	r := NewRPZ(healthy())
	for name, exists := range names {
		wr, err := w.Resolve(q(name, dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		rr, err := r.Resolve(q(name, dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		wPoisoned := len(wr.Answers) == 1 && wr.Answers[0].Addr == DefaultRedirectV4
		rPoisoned := len(rr.Answers) == 1 && rr.Answers[0].Addr == DefaultRedirectV4
		if !wPoisoned {
			t.Errorf("%s: wildcard did not poison", name)
		}
		if rPoisoned != exists {
			t.Errorf("%s: RPZ poisoned=%v, want %v", name, rPoisoned, exists)
		}
	}
}
