// Package rfc6724 implements Default Address Selection for IPv6
// (RFC 6724): the policy table, source address selection (§5) and
// destination address ordering (§6). This is the operating-system
// behaviour the paper's intervention leans on — "AAAA record answers
// will be preferred by modern operating systems with IPv6 connectivity",
// so dual-stack clients never touch the poisoned A records.
package rfc6724

import (
	"net/netip"
	"sort"
)

// PolicyRow is one row of the RFC 6724 §2.1 policy table.
type PolicyRow struct {
	Prefix     netip.Prefix
	Precedence int
	Label      int
}

// DefaultPolicyTable is the standard table from RFC 6724 §2.1.
// IPv4 addresses are looked up as v4-mapped (::ffff:0:0/96).
func DefaultPolicyTable() []PolicyRow {
	return []PolicyRow{
		{netip.MustParsePrefix("::1/128"), 50, 0},
		{netip.MustParsePrefix("::/0"), 40, 1},
		{netip.MustParsePrefix("::ffff:0:0/96"), 35, 4},
		{netip.MustParsePrefix("2002::/16"), 30, 2},
		{netip.MustParsePrefix("2001::/32"), 5, 5},
		{netip.MustParsePrefix("fc00::/7"), 3, 13},
		{netip.MustParsePrefix("::/96"), 1, 3},
		{netip.MustParsePrefix("fec0::/10"), 1, 11},
		{netip.MustParsePrefix("3ffe::/16"), 1, 12},
	}
}

// Selector performs address selection against a policy table.
type Selector struct {
	Table []PolicyRow
	// PreferIPv4DNS models nothing here; resolver preference is a host
	// stack matter. The Selector is purely RFC 6724.
}

// NewSelector returns a selector with the default policy table.
func NewSelector() *Selector { return &Selector{Table: DefaultPolicyTable()} }

// mapped returns the 16-byte form used for table lookups: IPv4 becomes
// v4-mapped IPv6.
func mapped(a netip.Addr) netip.Addr {
	if a.Is4() {
		v := a.As4()
		var b [16]byte
		b[10], b[11] = 0xff, 0xff
		copy(b[12:], v[:])
		return netip.AddrFrom16(b)
	}
	return a
}

// lookup finds the longest-prefix-match table row for a.
func (s *Selector) lookup(a netip.Addr) PolicyRow {
	m := mapped(a)
	best := PolicyRow{Precedence: -1, Label: -1}
	bestBits := -1
	for _, row := range s.Table {
		if row.Prefix.Contains(m) && row.Prefix.Bits() > bestBits {
			best, bestBits = row, row.Prefix.Bits()
		}
	}
	return best
}

// Precedence returns the policy precedence of a.
func (s *Selector) Precedence(a netip.Addr) int { return s.lookup(a).Precedence }

// Label returns the policy label of a.
func (s *Selector) Label(a netip.Addr) int { return s.lookup(a).Label }

// Address scopes per RFC 4007/6724 §3.1.
const (
	ScopeLinkLocal = 0x2
	ScopeSiteLocal = 0x5
	ScopeGlobal    = 0xe
)

// Scope classifies the scope of a.
func Scope(a netip.Addr) int {
	if a.Is4() {
		switch {
		case a.IsLoopback(), a.IsLinkLocalUnicast():
			return ScopeLinkLocal
		default:
			return ScopeGlobal
		}
	}
	switch {
	case a.IsLoopback(), a.IsLinkLocalUnicast():
		return ScopeLinkLocal
	case a.IsMulticast():
		b := a.As16()
		return int(b[1] & 0x0f)
	default:
		b := a.As16()
		if b[0] == 0xfe && b[1]&0xc0 == 0xc0 { // fec0::/10 deprecated site-local
			return ScopeSiteLocal
		}
		// ULA (fc00::/7) has global scope per RFC 4193 §3.
		return ScopeGlobal
	}
}

// CommonPrefixLen returns the length of the longest common prefix of a
// and b, capped at 64 bits per RFC 6724 §5 rule 8 note.
func CommonPrefixLen(a, b netip.Addr) int {
	x, y := mapped(a).As16(), mapped(b).As16()
	n := 0
	for i := 0; i < 16; i++ {
		diff := x[i] ^ y[i]
		if diff == 0 {
			n += 8
			continue
		}
		for bit := 7; bit >= 0; bit-- {
			if diff&(1<<bit) != 0 {
				n += 7 - bit
				break
			}
		}
		break
	}
	if n > 64 {
		n = 64
	}
	return n
}

// CandidateSource is a source address with its attributes.
type CandidateSource struct {
	Addr       netip.Addr
	Deprecated bool // preferred lifetime expired
}

// SelectSource chooses the best source for dst among candidates per
// RFC 6724 §5, in one pass that allocates nothing; the first
// same-family candidate wins ties. ok is false when no candidate shares
// dst's family.
func (s *Selector) SelectSource(candidates []CandidateSource, dst netip.Addr) (netip.Addr, bool) {
	var best CandidateSource
	found := false
	for _, c := range candidates {
		if c.Addr.Is4() != dst.Is4() {
			continue
		}
		if !found || s.betterSource(c, best, dst) {
			best, found = c, true
		}
	}
	return best.Addr, found
}

// betterSource reports whether a beats b as a source for dst.
func (s *Selector) betterSource(a, b CandidateSource, dst netip.Addr) bool {
	// Rule 1: prefer same address.
	if a.Addr == dst != (b.Addr == dst) {
		return a.Addr == dst
	}
	// Rule 2: prefer appropriate scope.
	sa, sb, sd := Scope(a.Addr), Scope(b.Addr), Scope(dst)
	if sa != sb {
		if sa < sb {
			if sa >= sd {
				return true
			}
			return false
		}
		if sb >= sd {
			return false
		}
		return true
	}
	// Rule 3: avoid deprecated addresses.
	if a.Deprecated != b.Deprecated {
		return !a.Deprecated
	}
	// Rule 6: prefer matching label.
	ld := s.Label(dst)
	la, lb := s.Label(a.Addr), s.Label(b.Addr)
	if (la == ld) != (lb == ld) {
		return la == ld
	}
	// Rule 8: longest matching prefix.
	return CommonPrefixLen(a.Addr, dst) > CommonPrefixLen(b.Addr, dst)
}

// Destination pairs a candidate destination with the source the host
// would use for it (absence of a source makes it unusable).
type Destination struct {
	Addr      netip.Addr
	Source    netip.Addr
	HasSource bool
}

// SortDestinations orders ds per RFC 6724 §6, best first. The sort is
// stable, so equal destinations keep resolver order (rule 10).
func (s *Selector) SortDestinations(ds []Destination) []Destination {
	out := append([]Destination(nil), ds...)
	sort.SliceStable(out, func(i, j int) bool {
		return s.destLess(out[i], out[j])
	})
	return out
}

// destLess reports whether a should sort before b.
func (s *Selector) destLess(a, b Destination) bool {
	// Rule 1: avoid unusable destinations.
	if a.HasSource != b.HasSource {
		return a.HasSource
	}
	if !a.HasSource {
		return false
	}
	// Rule 2: prefer matching scope.
	aMatch := Scope(a.Addr) == Scope(a.Source)
	bMatch := Scope(b.Addr) == Scope(b.Source)
	if aMatch != bMatch {
		return aMatch
	}
	// Rule 5: prefer matching label.
	aLbl := s.Label(a.Addr) == s.Label(a.Source)
	bLbl := s.Label(b.Addr) == s.Label(b.Source)
	if aLbl != bLbl {
		return aLbl
	}
	// Rule 6: prefer higher precedence.
	pa, pb := s.Precedence(a.Addr), s.Precedence(b.Addr)
	if pa != pb {
		return pa > pb
	}
	// Rule 8: prefer smaller scope.
	if sa, sb := Scope(a.Addr), Scope(b.Addr); sa != sb {
		return sa < sb
	}
	// Rule 9: longest matching prefix.
	ca := CommonPrefixLen(a.Addr, a.Source)
	cb := CommonPrefixLen(b.Addr, b.Source)
	if ca != cb {
		return ca > cb
	}
	return false // rule 10: leave order unchanged (stable sort)
}
