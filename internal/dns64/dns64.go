// Package dns64 implements RFC 6147 DNS64: synthesizing AAAA records
// from A records by embedding IPv4 addresses into an IPv6 prefix per
// RFC 6052. The testbed runs one healthy DNS64 instance (the Raspberry
// Pi server at fd00:976a::9) and the paper's poisoned server forwards
// its AAAA traffic here.
package dns64

import (
	"fmt"
	"net/netip"

	"repro/internal/dns"
	"repro/internal/dnswire"
)

// WellKnownPrefix is the NAT64 well-known prefix 64:ff9b::/96 (RFC 6052
// §2.1), the prefix the paper's 5G gateway translates.
var WellKnownPrefix = netip.MustParsePrefix("64:ff9b::/96")

// Synthesize embeds an IPv4 address into an IPv6 translation prefix.
// Only /96 prefixes are supported (the testbed's NAT64 uses the
// well-known /96; RFC 6052 also defines /32../64 layouts, which the
// gateway does not use).
func Synthesize(prefix netip.Prefix, v4 netip.Addr) (netip.Addr, error) {
	if prefix.Bits() != 96 || !prefix.Addr().Is6() {
		return netip.Addr{}, fmt.Errorf("dns64: prefix %v is not an IPv6 /96", prefix)
	}
	if !v4.Is4() {
		return netip.Addr{}, fmt.Errorf("dns64: %v is not IPv4", v4)
	}
	b := prefix.Addr().As16()
	v := v4.As4()
	copy(b[12:], v[:])
	return netip.AddrFrom16(b), nil
}

// Extract recovers the IPv4 address embedded in a synthesized IPv6
// address, reporting ok=false when addr is outside the prefix.
func Extract(prefix netip.Prefix, addr netip.Addr) (netip.Addr, bool) {
	if prefix.Bits() != 96 || !addr.Is6() || addr.Is4() || !prefix.Contains(addr) {
		return netip.Addr{}, false
	}
	b := addr.As16()
	return netip.AddrFrom4([4]byte(b[12:16])), true
}

// Resolver wraps an inner resolver with DNS64 AAAA synthesis per
// RFC 6147 §5: when an AAAA query yields no usable native answer, query
// for A records and synthesize AAAA answers inside Prefix.
type Resolver struct {
	Inner  dns.Resolver
	Prefix netip.Prefix

	// Exclude lists IPv4 ranges that must never be synthesized
	// (RFC 6147 §5.1.4); by default RFC 5737 test nets are allowed, but
	// 0.0.0.0/8 and 127.0.0.0/8 are excluded.
	Exclude []netip.Prefix

	// SynthTTL caps the TTL of synthesized records.
	SynthTTL uint32

	// Suppress, when non-nil and returning true, wedges the resolver's
	// AAAA path for this query: the query is silently dropped
	// (dns.ErrDrop, no response on the wire), modeling a DNS64 daemon
	// whose IPv6 handling intermittently hangs while A queries keep
	// answering. The dns64-flapping pathology wires a schedule gate
	// here; installs that do so must also shorten downstream cache TTLs
	// so answers resolved in an up-window cannot mask a later
	// down-window. The client-side timeout a dropped query burns is what
	// lets one probe suite sample several flap phases.
	Suppress func() bool

	// resolverState holds the counters; Checkpoint saves a copy in saved
	// and Restore copies it back.
	resolverState
	saved *resolverState
}

// resolverState is the part of a Resolver that queries change.
type resolverState struct {
	// Synthesized counts AAAA answers fabricated from A records.
	Synthesized uint64
	// FlapSuppressed counts AAAA queries dropped by a Suppress
	// down-window.
	FlapSuppressed uint64
}

// Checkpoint saves the resolver's counters for Restore; it is part of
// the testbed world-reuse lifecycle.
func (r *Resolver) Checkpoint() {
	saved := r.resolverState
	r.saved = &saved
}

// Restore sets the resolver's counters back to its checkpoint.
func (r *Resolver) Restore() { r.resolverState = *r.saved }

// New builds a DNS64 resolver over inner using the well-known prefix.
func New(inner dns.Resolver) *Resolver {
	return &Resolver{
		Inner:  inner,
		Prefix: WellKnownPrefix,
		Exclude: []netip.Prefix{
			netip.MustParsePrefix("0.0.0.0/8"),
			netip.MustParsePrefix("127.0.0.0/8"),
		},
		SynthTTL: 600,
	}
}

// Resolve implements dns.Resolver with AAAA synthesis (and PTR
// synthesis per RFC 6147 §5.3 for addresses inside the prefix).
func (r *Resolver) Resolve(q dnswire.Question) (*dnswire.Message, error) {
	// Canonicalise once; every layer below (inner resolvers, the A
	// re-query) then takes dnswire.CanonicalName's allocation-free path.
	q.Name = dnswire.CanonicalName(q.Name)
	if q.Type == dnswire.TypePTR {
		return r.resolvePTR(q)
	}
	if q.Type != dnswire.TypeAAAA {
		return r.Inner.Resolve(q)
	}
	if r.Suppress != nil && r.Suppress() {
		r.FlapSuppressed++
		return nil, dns.ErrDrop
	}
	native, err := r.Inner.Resolve(q)
	if err != nil {
		return nil, err
	}
	if hasUsableAAAA(native) {
		return native, nil
	}
	// RFC 6147 §5.1.2: on empty answer (NODATA or NXDOMAIN without
	// records), query for A and synthesize. NXDOMAIN for the name itself
	// is passed through only if the A query also says NXDOMAIN.
	aResp, err := r.Inner.Resolve(dnswire.Question{Name: q.Name, Type: dnswire.TypeA, Class: q.Class})
	if err != nil {
		return nil, err
	}
	if aResp.Rcode != dnswire.RcodeSuccess || len(aResp.Answers) == 0 {
		return native, nil
	}
	// Reuse the A response message as the synthesized reply: only the
	// answer-section header is replaced, so a cached inner message (which
	// hands out guarded shallow copies) is never mutated.
	out := aResp
	out.Authoritative = false
	synth := make([]dnswire.RR, 0, len(aResp.Answers))
	for _, rr := range aResp.Answers {
		switch rr.Type {
		case dnswire.TypeCNAME:
			synth = append(synth, rr)
		case dnswire.TypeA:
			if r.excluded(rr.Addr) {
				continue
			}
			syn, err := Synthesize(r.Prefix, rr.Addr)
			if err != nil {
				continue
			}
			ttl := rr.TTL
			if r.SynthTTL != 0 && ttl > r.SynthTTL {
				ttl = r.SynthTTL
			}
			synth = append(synth, dnswire.RR{
				Name: rr.Name, Type: dnswire.TypeAAAA, Class: rr.Class, TTL: ttl, Addr: syn,
			})
			r.Synthesized++
		}
	}
	if len(synth) == 0 {
		return native, nil
	}
	out.Answers = synth
	return out, nil
}

func (r *Resolver) excluded(v4 netip.Addr) bool {
	for _, p := range r.Exclude {
		if p.Contains(v4) {
			return true
		}
	}
	return false
}

func hasUsableAAAA(m *dnswire.Message) bool {
	if m.Rcode != dnswire.RcodeSuccess {
		return false
	}
	for _, rr := range m.Answers {
		if rr.Type == dnswire.TypeAAAA {
			return true
		}
	}
	return false
}
