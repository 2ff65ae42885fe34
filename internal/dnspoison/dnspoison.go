// Package dnspoison implements the paper's core contribution: an IPv4
// DNS intervention that answers every A query with the address of an
// informational web page (ip6.me) while forwarding AAAA queries to a
// healthy DNS64 server. Two policies are provided:
//
//   - Wildcard reproduces the deployed dnsmasq two-line configuration
//     ("address=/#/23.153.8.71" + "server=<healthy>"): it answers A
//     queries unconditionally, even for names that do not exist — the
//     pathology the paper's Fig. 9 documents.
//   - RPZ models the BIND9 Response Policy Zone alternative the paper's
//     §VI proposes: it consults the upstream first and only rewrites A
//     answers for names that actually exist, at the cost of an extra
//     upstream round trip per A query.
package dnspoison

import (
	"net/netip"
	"sync/atomic"

	"repro/internal/dns"
	"repro/internal/dnswire"
)

// DefaultRedirectV4 is ip6.me's IPv4 address as deployed in the paper.
var DefaultRedirectV4 = netip.MustParseAddr("23.153.8.71")

// Wildcard is the dnsmasq-style poisoner.
type Wildcard struct {
	// Redirect is the poisoned A answer given for every A query.
	Redirect netip.Addr
	// TTL for poisoned answers.
	TTL uint32
	// Upstream receives every non-A query (and nothing else).
	Upstream dns.Resolver
	// Exempt lists canonical names that are never poisoned (e.g. the
	// helpdesk portal itself when it is v4-hosted inside the venue).
	Exempt map[string]bool

	// wildcardState holds the counters; Checkpoint saves a copy in saved
	// and Restore copies it back.
	wildcardState
	saved *wildcardState
}

// wildcardState is the part of a Wildcard that queries change. Resolve
// counts with atomic adds, because a resolver shared by several
// goroutines may resolve through one poisoner concurrently.
type wildcardState struct {
	// Poisoned counts A queries answered with the redirect address.
	Poisoned uint64
	// Forwarded counts queries relayed upstream.
	Forwarded uint64
}

// Checkpoint saves the poisoner's counters for Restore; it is part of
// the testbed world-reuse lifecycle.
func (w *Wildcard) Checkpoint() {
	saved := w.wildcardState
	w.saved = &saved
}

// Restore sets the poisoner's counters back to its checkpoint.
func (w *Wildcard) Restore() { w.wildcardState = *w.saved }

// NewWildcard builds a wildcard poisoner forwarding to upstream.
func NewWildcard(upstream dns.Resolver) *Wildcard {
	return &Wildcard{Redirect: DefaultRedirectV4, TTL: 60, Upstream: upstream}
}

// Resolve implements dns.Resolver.
func (w *Wildcard) Resolve(q dnswire.Question) (*dnswire.Message, error) {
	name := dnswire.CanonicalName(q.Name)
	if q.Type == dnswire.TypeA && !w.Exempt[name] {
		// dnsmasq address=/#/X: answer immediately, never checking whether
		// the name exists. Non-existent FQDNs therefore get answers too.
		atomic.AddUint64(&w.Poisoned, 1)
		return dns.SingleAnswer(dnswire.RR{
			Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: w.TTL, Addr: w.Redirect,
		}), nil
	}
	if w.Upstream == nil {
		return nil, dns.ErrNoUpstream
	}
	atomic.AddUint64(&w.Forwarded, 1)
	return w.Upstream.Resolve(q)
}

// RPZ is the existence-aware poisoner.
type RPZ struct {
	Redirect netip.Addr
	TTL      uint32
	Upstream dns.Resolver

	// rpzState holds the counters; Checkpoint saves a copy in saved and
	// Restore copies it back.
	rpzState
	saved *rpzState
}

// rpzState is the part of an RPZ that queries change.
type rpzState struct {
	// Poisoned counts A answers rewritten to the redirect address.
	Poisoned uint64
	// Forwarded counts queries relayed upstream (including the A
	// existence checks — the configuration-complexity cost §VI mentions).
	Forwarded uint64
	// PassedNXDomain counts A queries answered NXDOMAIN faithfully —
	// exactly the cases Wildcard would have falsified.
	PassedNXDomain uint64
}

// Checkpoint saves the poisoner's counters for Restore; it is part of
// the testbed world-reuse lifecycle.
func (r *RPZ) Checkpoint() {
	saved := r.rpzState
	r.saved = &saved
}

// Restore sets the poisoner's counters back to its checkpoint.
func (r *RPZ) Restore() { r.rpzState = *r.saved }

// NewRPZ builds an RPZ-style poisoner forwarding to upstream.
func NewRPZ(upstream dns.Resolver) *RPZ {
	return &RPZ{Redirect: DefaultRedirectV4, TTL: 60, Upstream: upstream}
}

// Resolve implements dns.Resolver.
func (r *RPZ) Resolve(q dnswire.Question) (*dnswire.Message, error) {
	if r.Upstream == nil {
		return nil, dns.ErrNoUpstream
	}
	if q.Type != dnswire.TypeA {
		r.Forwarded++
		return r.Upstream.Resolve(q)
	}
	// Check existence upstream before rewriting.
	r.Forwarded++
	upstreamResp, err := r.Upstream.Resolve(q)
	if err != nil {
		return nil, err
	}
	if upstreamResp.Rcode == dnswire.RcodeNXDomain {
		r.PassedNXDomain++
		return upstreamResp, nil
	}
	if upstreamResp.Rcode != dnswire.RcodeSuccess {
		return upstreamResp, nil
	}
	// Name exists (with or without A records): rewrite so the IPv4-only
	// client lands on the informational page.
	r.Poisoned++
	return dns.SingleAnswer(dnswire.RR{
		Name: dnswire.CanonicalName(q.Name), Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: r.TTL, Addr: r.Redirect,
	}), nil
}
