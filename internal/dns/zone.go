package dns

import (
	"fmt"
	"strings"

	"repro/internal/dnswire"
)

// Zone is an authoritative zone: an origin, an SOA, and a record set
// supporting CNAME chasing and leftmost wildcards ("*.origin").
type Zone struct {
	Origin  string
	SOA     dnswire.SOAData
	records map[string][]dnswire.RR
	// nonTerminals holds every ancestor of an owner name, so the
	// NXDOMAIN-vs-NODATA decision is O(1) instead of a record scan.
	nonTerminals map[string]bool
	// wildcardOwners maps the suffix covered by a wildcard record
	// ("b.c." for "*.b.c.") to its owner name, so lookup can probe
	// candidate wildcards with substring keys instead of rebuilding each
	// candidate name with SplitLabels+Join.
	wildcardOwners map[string]string
	// soaAuth caches the one-record authority section used by NXDOMAIN
	// and NODATA responses, rebuilt if SOA.Minimum changes.
	soaAuth []dnswire.RR
}

// NewZone creates an empty zone rooted at origin with a default SOA.
func NewZone(origin string) *Zone {
	origin = dnswire.CanonicalName(origin)
	return &Zone{
		Origin: origin,
		SOA: dnswire.SOAData{
			MName:   "ns1." + strings.TrimPrefix(origin, "."),
			RName:   "hostmaster." + strings.TrimPrefix(origin, "."),
			Serial:  2024111701,
			Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 60,
		},
		records:        make(map[string][]dnswire.RR),
		nonTerminals:   make(map[string]bool),
		wildcardOwners: make(map[string]string),
	}
}

// Add inserts a record. The name may be relative to the origin ("www"),
// absolute ("www.example.com."), "@" for the origin itself, or a
// wildcard ("*" / "*.sub").
func (z *Zone) Add(rr dnswire.RR) error {
	name := z.qualify(rr.Name)
	if !dnswire.IsSubdomain(strings.TrimPrefix(name, "*."), z.Origin) {
		return fmt.Errorf("dns: %q is out of zone %q", rr.Name, z.Origin)
	}
	rr.Name = name
	if rr.TTL == 0 {
		rr.TTL = 300
	}
	z.records[name] = append(z.records[name], rr)
	if strings.HasPrefix(name, "*.") {
		z.wildcardOwners[name[2:]] = name
	}
	// Record every ancestor between the owner and the origin as an empty
	// non-terminal candidate.
	labels := dnswire.SplitLabels(name)
	for i := 1; i < len(labels); i++ {
		anc := strings.Join(labels[i:], ".") + "."
		if !dnswire.IsSubdomain(anc, z.Origin) {
			break
		}
		z.nonTerminals[anc] = true
	}
	return nil
}

// MustAdd is Add for static zone construction; it panics on bad records.
func (z *Zone) MustAdd(rr dnswire.RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

func (z *Zone) qualify(name string) string {
	name = strings.TrimSpace(strings.ToLower(name))
	if name == "@" || name == "" {
		return z.Origin
	}
	if strings.HasSuffix(name, ".") {
		return dnswire.CanonicalName(name)
	}
	return dnswire.CanonicalName(name + "." + strings.TrimPrefix(z.Origin, "."))
}

// soaRR renders the zone's SOA as a record for authority sections.
func (z *Zone) soaRR() dnswire.RR {
	return dnswire.RR{Name: z.Origin, Type: dnswire.TypeSOA, TTL: z.SOA.Minimum, SOA: &z.SOA}
}

// soaAuthority returns the cached single-record authority section for
// negative answers, clamped to capacity so caller appends reallocate.
// The SOA data itself is shared by pointer (as soaRR always did); only
// the TTL is copied, so the cache is rebuilt if SOA.Minimum changes.
func (z *Zone) soaAuthority() []dnswire.RR {
	if z.soaAuth == nil || z.soaAuth[0].TTL != z.SOA.Minimum {
		z.soaAuth = []dnswire.RR{z.soaRR()}
	}
	return z.soaAuth[:1:1]
}

// Resolve answers a question authoritatively, chasing CNAME chains and
// falling back to wildcard records. Nonexistent names yield NXDOMAIN
// with the SOA in the authority section; existing names with no records
// of the requested type yield NODATA.
func (z *Zone) Resolve(q dnswire.Question) (*dnswire.Message, error) {
	resp := NoError()
	resp.Authoritative = true

	name := dnswire.CanonicalName(q.Name)
	// seen guards against CNAME loops; it is allocated only once a CNAME
	// is actually followed, keeping the common single-hop path map-free.
	var seen map[string]bool
	for hop := 0; hop < 16; hop++ {
		if seen[name] {
			return nil, fmt.Errorf("dns: CNAME loop at %q", name)
		}

		rrs, exists, wild := z.lookup(name)
		if !exists {
			resp.Rcode = dnswire.RcodeNXDomain
			resp.Authorities = z.soaAuthority()
			return resp, nil
		}
		matched := 0
		cnameIdx := -1
		for i := range rrs {
			if rrs[i].Type == q.Type || q.Type == dnswire.TypeANY {
				matched++
			} else if rrs[i].Type == dnswire.TypeCNAME {
				cnameIdx = i
			}
		}
		if matched == len(rrs) && matched > 0 && !wild && resp.Answers == nil {
			// Every stored record matches and owner names need no wildcard
			// materialization: alias the stored slice at full capacity
			// (caller appends reallocate; elements are read-only).
			resp.Answers = rrs[:len(rrs):len(rrs)]
			return resp, nil
		}
		if matched > 0 || cnameIdx < 0 || q.Type == dnswire.TypeCNAME {
			for i := range rrs {
				if rrs[i].Type == q.Type || q.Type == dnswire.TypeANY {
					rr := rrs[i]
					rr.Name = name // materialize wildcard owner names
					resp.Answers = append(resp.Answers, rr)
				}
			}
			if matched == 0 {
				resp.Authorities = z.soaAuthority()
			}
			return resp, nil
		}
		// Follow the CNAME: emit it and continue at the target.
		cname := rrs[cnameIdx]
		cname.Name = name
		resp.Answers = append(resp.Answers, cname)
		if !dnswire.IsSubdomain(cname.Target, z.Origin) {
			// Target out of zone: the client must chase it elsewhere.
			return resp, nil
		}
		if seen == nil {
			seen = make(map[string]bool, 4)
		}
		seen[name] = true
		name = cname.Target
	}
	return nil, fmt.Errorf("dns: CNAME chain too long for %q", q.Name)
}

// lookup finds records for name, trying exact match then wildcard
// synthesis per RFC 1034 §4.3.3. exists reports whether the name (or a
// covering wildcard) is present at all; wild reports a wildcard match,
// whose owner names must be rewritten to the query name.
func (z *Zone) lookup(name string) (rrs []dnswire.RR, exists, wild bool) {
	if rrs, ok := z.records[name]; ok {
		return rrs, true, false
	}
	// An empty non-terminal (a name under which records exist) is NODATA,
	// not NXDOMAIN.
	if z.nonTerminals[name] {
		return nil, true, false
	}
	if len(z.wildcardOwners) > 0 {
		// Wildcard: strip leading labels progressively and probe each
		// remaining suffix. The suffix is a substring of the canonical
		// name, so probing allocates nothing.
		for idx := strings.IndexByte(name, '.') + 1; idx > 0 && idx < len(name); {
			if owner, ok := z.wildcardOwners[name[idx:]]; ok {
				return z.records[owner], true, true
			}
			next := strings.IndexByte(name[idx:], '.')
			if next < 0 {
				break
			}
			idx += next + 1
		}
	}
	return nil, false, false
}

// Authority routes questions to the longest-matching of several zones
// and refuses questions outside all of them (like an authoritative-only
// BIND view).
type Authority struct {
	zones []*Zone
}

// NewAuthority builds an authority over the given zones.
func NewAuthority(zones ...*Zone) *Authority {
	return &Authority{zones: zones}
}

// AddZone registers another zone.
func (a *Authority) AddZone(z *Zone) { a.zones = append(a.zones, z) }

// Match returns the zone with the longest origin containing name, or nil.
func (a *Authority) Match(name string) *Zone {
	var best *Zone
	for _, z := range a.zones {
		if dnswire.IsSubdomain(name, z.Origin) {
			if best == nil || len(z.Origin) > len(best.Origin) {
				best = z
			}
		}
	}
	return best
}

// Resolve answers from the matching zone, or REFUSED when out of zone.
func (a *Authority) Resolve(q dnswire.Question) (*dnswire.Message, error) {
	z := a.Match(dnswire.CanonicalName(q.Name))
	if z == nil {
		resp := NoError()
		resp.Rcode = dnswire.RcodeRefused
		return resp, nil
	}
	return z.Resolve(q)
}
