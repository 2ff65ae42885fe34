package dns

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
)

func q(name string, qtype uint16) dnswire.Question {
	return dnswire.Question{Name: name, Type: qtype, Class: dnswire.ClassIN}
}

func mustResolve(t *testing.T, r Resolver, question dnswire.Question) *dnswire.Message {
	t.Helper()
	m, err := r.Resolve(question)
	if err != nil {
		t.Fatalf("Resolve(%v): %v", question, err)
	}
	return m
}

func testZone(t *testing.T) *Zone {
	t.Helper()
	z := NewZone("rfc8925.com")
	if err := z.Add(dnswire.RR{Name: "www", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("192.168.12.80")}); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dnswire.RR{Name: "www", Type: dnswire.TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("fd00:976a::80")}); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dnswire.RR{Name: "alias", Type: dnswire.TypeCNAME, Target: "www.rfc8925.com."}); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dnswire.RR{Name: "v4only", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("192.168.12.81")}); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dnswire.RR{Name: "*", Type: dnswire.TypeA, Addr: netip.MustParseAddr("192.168.12.99")}); err != nil {
		t.Fatal(err)
	}
	return z
}

func TestZoneExactMatch(t *testing.T) {
	z := testZone(t)
	resp := mustResolve(t, z, q("www.rfc8925.com", dnswire.TypeA))
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Answers[0].Addr != netip.MustParseAddr("192.168.12.80") {
		t.Errorf("A = %v", resp.Answers[0].Addr)
	}
	if !resp.Authoritative {
		t.Error("zone answer should be authoritative")
	}
}

func TestZoneNODATAvsNXDOMAIN(t *testing.T) {
	z := testZone(t)
	// v4only has an A but no AAAA: NODATA (NOERROR, zero answers).
	resp := mustResolve(t, z, q("v4only.rfc8925.com", dnswire.TypeAAAA))
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 0 {
		t.Errorf("want NODATA, got rcode=%s answers=%d", dnswire.RcodeString(resp.Rcode), len(resp.Answers))
	}
	if len(resp.Authorities) == 0 || resp.Authorities[0].Type != dnswire.TypeSOA {
		t.Error("NODATA should carry SOA in authority")
	}
}

func TestZoneWildcard(t *testing.T) {
	z := testZone(t)
	resp := mustResolve(t, z, q("anything.rfc8925.com", dnswire.TypeA))
	if len(resp.Answers) != 1 || resp.Answers[0].Addr != netip.MustParseAddr("192.168.12.99") {
		t.Fatalf("wildcard answer = %+v", resp.Answers)
	}
	if resp.Answers[0].Name != "anything.rfc8925.com." {
		t.Errorf("wildcard owner name = %q, want the query name", resp.Answers[0].Name)
	}
	// Wildcard does not apply to AAAA (no wildcard AAAA record): NODATA.
	resp = mustResolve(t, z, q("anything.rfc8925.com", dnswire.TypeAAAA))
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 0 {
		t.Errorf("wildcard AAAA: rcode=%s answers=%d", dnswire.RcodeString(resp.Rcode), len(resp.Answers))
	}
}

func TestZoneEmptyNonTerminal(t *testing.T) {
	z := NewZone("example.com")
	if err := z.Add(dnswire.RR{Name: "a.b.c", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("10.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	// b.c.example.com has no records but has a child: NODATA, not NXDOMAIN.
	resp := mustResolve(t, z, q("b.c.example.com", dnswire.TypeA))
	if resp.Rcode != dnswire.RcodeSuccess {
		t.Errorf("empty non-terminal: rcode = %s, want NOERROR", dnswire.RcodeString(resp.Rcode))
	}
}

func TestZoneCNAMEChase(t *testing.T) {
	z := testZone(t)
	resp := mustResolve(t, z, q("alias.rfc8925.com", dnswire.TypeAAAA))
	if len(resp.Answers) != 2 {
		t.Fatalf("answers = %+v", resp.Answers)
	}
	if resp.Answers[0].Type != dnswire.TypeCNAME || resp.Answers[1].Type != dnswire.TypeAAAA {
		t.Errorf("answer order: %v then %v", resp.Answers[0].Type, resp.Answers[1].Type)
	}
	if resp.Answers[1].Addr != netip.MustParseAddr("fd00:976a::80") {
		t.Errorf("chased AAAA = %v", resp.Answers[1].Addr)
	}
}

func TestZoneCNAMEQueryReturnsCNAMEOnly(t *testing.T) {
	z := testZone(t)
	resp := mustResolve(t, z, q("alias.rfc8925.com", dnswire.TypeCNAME))
	if len(resp.Answers) != 1 || resp.Answers[0].Type != dnswire.TypeCNAME {
		t.Fatalf("CNAME query answers = %+v", resp.Answers)
	}
}

func TestZoneCNAMELoopDetected(t *testing.T) {
	z := NewZone("loop.test")
	if err := z.Add(dnswire.RR{Name: "a", Type: dnswire.TypeCNAME, Target: "b.loop.test."}); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dnswire.RR{Name: "b", Type: dnswire.TypeCNAME, Target: "a.loop.test."}); err != nil {
		t.Fatal(err)
	}
	if _, err := z.Resolve(q("a.loop.test", dnswire.TypeA)); err == nil {
		t.Error("CNAME loop resolved without error")
	}
}

func TestZoneNXDOMAINCarriesSOA(t *testing.T) {
	z := testZone(t)
	// The zone has a wildcard, so use a name the wildcard won't cover:
	// wildcards require at least one label to the left of the suffix.
	resp := mustResolve(t, z, q("rfc8925.com", dnswire.TypePTR))
	_ = resp // origin exists; use a different zone for real NXDOMAIN
	z2 := NewZone("nowild.test")
	if err := z2.Add(dnswire.RR{Name: "www", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("10.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	resp = mustResolve(t, z2, q("missing.nowild.test", dnswire.TypeA))
	if resp.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("rcode = %s, want NXDOMAIN", dnswire.RcodeString(resp.Rcode))
	}
	if len(resp.Authorities) != 1 || resp.Authorities[0].SOA == nil {
		t.Error("NXDOMAIN must carry the zone SOA")
	}
}

func TestZoneRejectsOutOfZoneRecord(t *testing.T) {
	z := NewZone("rfc8925.com")
	if err := z.Add(dnswire.RR{Name: "www.elsewhere.org.", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("10.0.0.1")}); err == nil {
		t.Error("out-of-zone record accepted")
	}
}

func TestZoneRelativeAndAbsoluteNames(t *testing.T) {
	z := NewZone("rfc8925.com")
	if err := z.Add(dnswire.RR{Name: "@", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("10.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dnswire.RR{Name: "deep.sub.rfc8925.com.", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("10.0.0.2")}); err != nil {
		t.Fatal(err)
	}
	resp := mustResolve(t, z, q("rfc8925.com", dnswire.TypeA))
	if len(resp.Answers) != 1 {
		t.Errorf("@ record not resolvable: %+v", resp)
	}
	resp = mustResolve(t, z, q("deep.sub.rfc8925.com", dnswire.TypeA))
	if len(resp.Answers) != 1 {
		t.Errorf("absolute record not resolvable: %+v", resp)
	}
}

func TestAuthorityLongestMatch(t *testing.T) {
	parent := NewZone("example.com")
	if err := parent.Add(dnswire.RR{Name: "www", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("10.0.0.1")}); err != nil {
		t.Fatal(err)
	}
	child := NewZone("sub.example.com")
	if err := child.Add(dnswire.RR{Name: "www", Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr("10.0.0.2")}); err != nil {
		t.Fatal(err)
	}
	a := NewAuthority(parent, child)
	resp := mustResolve(t, a, q("www.sub.example.com", dnswire.TypeA))
	if len(resp.Answers) != 1 || resp.Answers[0].Addr != netip.MustParseAddr("10.0.0.2") {
		t.Errorf("child zone not preferred: %+v", resp.Answers)
	}
	resp = mustResolve(t, a, q("other.test", dnswire.TypeA))
	if resp.Rcode != dnswire.RcodeRefused {
		t.Errorf("out-of-zone rcode = %s, want REFUSED", dnswire.RcodeString(resp.Rcode))
	}
}

func TestStaticNXDOMAINAndNODATA(t *testing.T) {
	s := NewStatic(dnswire.RR{Name: "x.test", Type: dnswire.TypeA, TTL: 1, Addr: netip.MustParseAddr("1.2.3.4")})
	resp := mustResolve(t, s, q("y.test", dnswire.TypeA))
	if resp.Rcode != dnswire.RcodeNXDomain {
		t.Error("missing name should be NXDOMAIN")
	}
	resp = mustResolve(t, s, q("x.test", dnswire.TypeAAAA))
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 0 {
		t.Error("existing name, missing type should be NODATA")
	}
}

func TestRespondGlue(t *testing.T) {
	s := NewStatic(dnswire.RR{Name: "x.test", Type: dnswire.TypeA, TTL: 1, Addr: netip.MustParseAddr("1.2.3.4")})
	req := dnswire.NewQuery(42, "x.test", dnswire.TypeA)
	resp := Respond(s, req)
	if resp.ID != 42 || !resp.Response || len(resp.Answers) != 1 {
		t.Errorf("Respond = %+v", resp)
	}

	// No questions -> FORMERR.
	resp = Respond(s, &dnswire.Message{ID: 1})
	if resp.Rcode != dnswire.RcodeFormErr {
		t.Errorf("empty question rcode = %s", dnswire.RcodeString(resp.Rcode))
	}

	// Resolver error -> SERVFAIL.
	bad := ResolverFunc(func(dnswire.Question) (*dnswire.Message, error) {
		return nil, ErrNoUpstream
	})
	resp = Respond(bad, req)
	if resp.Rcode != dnswire.RcodeServFail {
		t.Errorf("error rcode = %s", dnswire.RcodeString(resp.Rcode))
	}
}

func TestQueryLogCounts(t *testing.T) {
	s := NewStatic(dnswire.RR{Name: "x.test", Type: dnswire.TypeA, TTL: 1, Addr: netip.MustParseAddr("1.2.3.4")})
	l := &QueryLog{Inner: s}
	mustResolve(t, l, q("x.test", dnswire.TypeA))
	mustResolve(t, l, q("x.test", dnswire.TypeAAAA))
	mustResolve(t, l, q("x.test", dnswire.TypeA))
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3", l.Len())
	}
}

func TestCacheHitAndExpiry(t *testing.T) {
	now := time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }

	calls := 0
	inner := ResolverFunc(func(qq dnswire.Question) (*dnswire.Message, error) {
		calls++
		resp := NoError()
		resp.Answers = []dnswire.RR{{Name: qq.Name, Type: dnswire.TypeA, TTL: 30, Addr: netip.MustParseAddr("9.9.9.9")}}
		return resp, nil
	})
	c := NewCache(inner, clock)

	mustResolve(t, c, q("cached.test", dnswire.TypeA))
	mustResolve(t, c, q("cached.test", dnswire.TypeA))
	if calls != 1 {
		t.Fatalf("inner calls = %d, want 1 (second should hit cache)", calls)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d", c.Hits, c.Misses)
	}

	now = now.Add(31 * time.Second) // past the 30s TTL
	mustResolve(t, c, q("cached.test", dnswire.TypeA))
	if calls != 2 {
		t.Errorf("inner calls = %d after TTL expiry, want 2", calls)
	}
}

func TestCacheNegativeTTLUsesSOAMinimum(t *testing.T) {
	now := time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	calls := 0
	inner := ResolverFunc(func(qq dnswire.Question) (*dnswire.Message, error) {
		calls++
		resp := NXDomain()
		resp.Authorities = []dnswire.RR{{
			Name: "test.", Type: dnswire.TypeSOA, TTL: 5,
			SOA: &dnswire.SOAData{Minimum: 5},
		}}
		return resp, nil
	})
	c := NewCache(inner, clock)
	mustResolve(t, c, q("gone.test", dnswire.TypeA))
	mustResolve(t, c, q("gone.test", dnswire.TypeA))
	if calls != 1 {
		t.Fatalf("negative answer not cached: calls = %d", calls)
	}
	now = now.Add(6 * time.Second)
	mustResolve(t, c, q("gone.test", dnswire.TypeA))
	if calls != 2 {
		t.Errorf("negative cache did not honor SOA minimum: calls = %d", calls)
	}
}

func TestCacheDistinguishesQtype(t *testing.T) {
	now := time.Date(2024, 11, 17, 9, 0, 0, 0, time.UTC)
	calls := 0
	inner := ResolverFunc(func(qq dnswire.Question) (*dnswire.Message, error) {
		calls++
		resp := NoError()
		if qq.Type == dnswire.TypeA {
			resp.Answers = []dnswire.RR{{Name: qq.Name, Type: dnswire.TypeA, TTL: 300, Addr: netip.MustParseAddr("1.1.1.1")}}
		} else {
			resp.Answers = []dnswire.RR{{Name: qq.Name, Type: dnswire.TypeAAAA, TTL: 300, Addr: netip.MustParseAddr("2606:4700::1")}}
		}
		return resp, nil
	})
	c := NewCache(inner, func() time.Time { return now })
	mustResolve(t, c, q("both.test", dnswire.TypeA))
	respAAAA := mustResolve(t, c, q("both.test", dnswire.TypeAAAA))
	if calls != 2 {
		t.Errorf("A and AAAA must cache separately: calls = %d", calls)
	}
	if respAAAA.Answers[0].Type != dnswire.TypeAAAA {
		t.Error("AAAA lookup returned cached A entry")
	}
	if c.Len() != 2 {
		t.Errorf("cache entries = %d, want 2", c.Len())
	}
}
