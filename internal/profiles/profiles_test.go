package profiles

import "testing"

func TestMatrixInvariants(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("profiles = %d", len(all))
	}
	names := map[string]bool{}
	for _, b := range all {
		if b.Name == "" {
			t.Error("profile without name")
		}
		if names[b.Name] {
			t.Errorf("duplicate profile %q", b.Name)
		}
		names[b.Name] = true
		if !b.IPv4Enabled && !b.IPv6Enabled {
			t.Errorf("%s has no stack at all", b.Name)
		}
		if b.HasCLAT && !b.SupportsRFC8925 {
			t.Errorf("%s: CLAT without option 108 support is not modelled", b.Name)
		}
		if b.SupportsRFC8925 && !b.IPv6Enabled {
			t.Errorf("%s: option 108 requires IPv6", b.Name)
		}
	}
}

func TestPaperObservedQuirks(t *testing.T) {
	if WindowsXP().SupportsRDNSS {
		t.Error("XP must not learn RDNSS (paper Fig. 7)")
	}
	if !WindowsXP().IPv6Enabled {
		t.Error("XP is dual-stack in the testbed (paper Fig. 7)")
	}
	if Windows10().PreferIPv4DNS {
		t.Error("Windows 10 prefers the RDNSS resolver (paper Fig. 10)")
	}
	if !Windows11().PreferIPv4DNS {
		t.Error("Windows 11 prefers the DHCPv4 resolver (paper §VI)")
	}
	if Windows11().SupportsRFC8925 {
		t.Error("shipping Windows 11 lacks option 108 (paper §VII)")
	}
	if !Windows11RFC8925().SupportsRFC8925 || !Windows11RFC8925().HasCLAT {
		t.Error("future Windows 11 should have option 108 + CLAT (paper ref [29])")
	}
	for _, b := range []string{MacOS().Name, IOS().Name, Android().Name} {
		_ = b
	}
	if !MacOS().SupportsRFC8925 || !IOS().SupportsRFC8925 || !Android().SupportsRFC8925 {
		t.Error("Apple/Google platforms adopted RFC 8925 (paper §I)")
	}
	if NintendoSwitch().IPv6Enabled {
		t.Error("the Switch is IPv4-only (paper Fig. 6)")
	}
	if b := IPv6OnlyLinux(); b.IPv4Enabled || !b.IPv6Enabled {
		t.Error("the IPv6-only Linux client has IPv4 enabled or IPv6 disabled")
	}
	if Windows10NoV6().IPv6Enabled {
		t.Error("the Fig. 5 client has IPv6 disabled")
	}
}
