package ndp

import (
	"testing"
	"testing/quick"
)

// Every ND parser must be total: hosts parse whatever ICMPv6 bodies the
// fabric delivers.
func TestParsersNeverPanic(t *testing.T) {
	parsers := map[string]func([]byte){
		"RA": func(b []byte) {
			var ra RouterAdvert
			if ra.Decode(b) == nil {
				_ = ra.Marshal()
			}
		},
		"RS": func(b []byte) {
			var rs RouterSolicit
			if rs.Decode(b) == nil {
				_ = rs.Marshal()
			}
		},
		"NS": func(b []byte) {
			var ns NeighborSolicit
			if ns.Decode(b) == nil {
				_ = ns.Marshal()
			}
		},
		"NA": func(b []byte) {
			var na NeighborAdvert
			if na.Decode(b) == nil {
				_ = na.Marshal()
			}
		},
	}
	for name, parse := range parsers {
		parse := parse
		prop := func(data []byte) (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					ok = false
				}
			}()
			parse(data)
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
