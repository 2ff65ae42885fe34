// Package dns provides the server-side DNS machinery of the testbed:
// authoritative zones with CNAME chasing and wildcards, an authority that
// routes questions to the longest-matching zone, a forwarding resolver,
// and a TTL cache. All components speak through the Resolver interface so
// the DNS64 synthesizer and the two poisoners can wrap any of them.
package dns

import (
	"errors"
	"fmt"

	"repro/internal/dnswire"
)

// Resolver answers a single DNS question with a full response message.
// Implementations set Rcode and the answer/authority sections; the
// message ID is owned by the transport layer.
type Resolver interface {
	Resolve(q dnswire.Question) (*dnswire.Message, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(q dnswire.Question) (*dnswire.Message, error)

// Resolve calls fn(q).
func (fn ResolverFunc) Resolve(q dnswire.Question) (*dnswire.Message, error) { return fn(q) }

// ErrNoUpstream reports a forwarding resolver with nowhere to send.
var ErrNoUpstream = errors.New("dns: no upstream configured")

// ErrDrop instructs the serving glue to discard the query without
// answering at all — not even SERVFAIL. Resolvers return it (wrapped or
// bare) to model on-path interference that silently eats packets; the
// querying client sees a timeout, exactly as Martiny et al. observed
// for asymmetric resolver interference in the wild.
var ErrDrop = errors.New("dns: drop query silently")

// Respond builds the response for req by routing its first question
// through r. Malformed or empty questions yield FORMERR; resolver errors
// yield SERVFAIL. This is the glue a UDP server loop calls.
func Respond(r Resolver, req *dnswire.Message) *dnswire.Message {
	resp := RespondOrDrop(r, req)
	if resp == nil {
		resp = dnswire.ReplyTo(req)
		resp.Rcode = dnswire.RcodeServFail
	}
	return resp
}

// RespondOrDrop is Respond for transports that can stay silent: a
// resolver error matching ErrDrop yields a nil response and the caller
// must send nothing, leaving the client to time out.
func RespondOrDrop(r Resolver, req *dnswire.Message) *dnswire.Message {
	resp := dnswire.ReplyTo(req)
	if len(req.Questions) != 1 {
		resp.Rcode = dnswire.RcodeFormErr
		return resp
	}
	ans, err := r.Resolve(req.Questions[0])
	if errors.Is(err, ErrDrop) {
		return nil
	}
	if err != nil {
		resp.Rcode = dnswire.RcodeServFail
		return resp
	}
	resp.Rcode = ans.Rcode
	resp.Authoritative = ans.Authoritative
	resp.Answers = ans.Answers
	resp.Authorities = ans.Authorities
	resp.Additionals = ans.Additionals
	return resp
}

// NoError returns an empty NOERROR response (a NODATA answer).
func NoError() *dnswire.Message {
	return &dnswire.Message{Response: true, Rcode: dnswire.RcodeSuccess}
}

// NXDomain returns an NXDOMAIN response.
func NXDomain() *dnswire.Message {
	return &dnswire.Message{Response: true, Rcode: dnswire.RcodeNXDomain}
}

// ServFail returns a SERVFAIL response — what a recursive resolver
// answers when it cannot complete resolution (for example because a
// delegation points at a nameserver it cannot reach).
func ServFail() *dnswire.Message {
	return &dnswire.Message{Response: true, Rcode: dnswire.RcodeServFail}
}

// SingleAnswer returns a NOERROR response carrying exactly one answer
// record. The message and its answer storage share one allocation — the
// poisoners fabricate one of these per A query, so the hot path matters.
// The answer slice is at capacity, so caller appends reallocate rather
// than touching the response's storage.
func SingleAnswer(rr dnswire.RR) *dnswire.Message {
	buf := &struct {
		msg dnswire.Message
		rr  [1]dnswire.RR
	}{}
	buf.rr[0] = rr
	buf.msg.Response = true
	buf.msg.Answers = buf.rr[:]
	return &buf.msg
}

// Forwarder relays every question to Upstream, mirroring dnsmasq's
// "server=..." directive. Upstream is any Resolver — typically a remote
// server reached through a stub-resolver transport.
type Forwarder struct {
	Upstream Resolver
}

// Resolve forwards q to the upstream resolver.
func (f *Forwarder) Resolve(q dnswire.Question) (*dnswire.Message, error) {
	if f.Upstream == nil {
		return nil, ErrNoUpstream
	}
	return f.Upstream.Resolve(q)
}

// Static is a trivial resolver answering from a fixed record set, keyed
// by canonical name. It distinguishes NODATA (name exists, no records of
// that type) from NXDOMAIN.
type Static struct {
	Records map[string][]dnswire.RR
}

// NewStatic builds a Static resolver from a list of records.
func NewStatic(rrs ...dnswire.RR) *Static {
	s := &Static{Records: make(map[string][]dnswire.RR)}
	for _, rr := range rrs {
		rr.Name = dnswire.CanonicalName(rr.Name)
		s.Records[rr.Name] = append(s.Records[rr.Name], rr)
	}
	return s
}

// Resolve answers q from the record set. When every stored record for
// the name matches the query type (the common single-type case) the
// response aliases the stored slice at full capacity instead of copying
// it; callers may append to the answer section (forcing a reallocation)
// but must not mutate its elements.
func (s *Static) Resolve(q dnswire.Question) (*dnswire.Message, error) {
	name := dnswire.CanonicalName(q.Name)
	rrs, ok := s.Records[name]
	if !ok {
		return NXDomain(), nil
	}
	resp := NoError()
	matches := 0
	for _, rr := range rrs {
		if rr.Type == q.Type || q.Type == dnswire.TypeANY {
			matches++
		}
	}
	if matches == len(rrs) {
		resp.Answers = rrs[:len(rrs):len(rrs)]
		return resp, nil
	}
	if matches > 0 {
		resp.Answers = make([]dnswire.RR, 0, matches)
		for _, rr := range rrs {
			if rr.Type == q.Type || q.Type == dnswire.TypeANY {
				resp.Answers = append(resp.Answers, rr)
			}
		}
	}
	return resp, nil
}

// QueryLog counts every question a wrapped resolver sees; tests and the
// experiment harness use the count to prove which resolver a client
// consulted.
type QueryLog struct {
	Inner Resolver
	n     int
}

// Resolve counts q and delegates to the inner resolver.
func (l *QueryLog) Resolve(q dnswire.Question) (*dnswire.Message, error) {
	l.n++
	if l.Inner == nil {
		return nil, fmt.Errorf("dns: query log has no inner resolver")
	}
	return l.Inner.Resolve(q)
}

// Len returns the number of questions seen.
func (l *QueryLog) Len() int { return l.n }
