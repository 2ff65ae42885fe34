package packet

import (
	"net/netip"
	"testing"
	"testing/quick"
)

// These properties assert total robustness: arbitrary input bytes may
// produce errors but never panics, and any successfully parsed packet
// re-marshals without panicking. The translators (NAT64/CLAT/NAT44)
// feed each other parser output, so totality matters.

func neverPanics(t *testing.T, name string, f func(data []byte)) {
	t.Helper()
	prop := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		f(data)
		return true
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("%s panicked: %v", name, err)
	}
}

func TestParseIPv4NeverPanics(t *testing.T) {
	neverPanics(t, "IPv4.Decode", func(data []byte) {
		var p IPv4
		if p.Decode(data) == nil {
			_ = p.Marshal()
		}
	})
}

func TestParseIPv6NeverPanics(t *testing.T) {
	neverPanics(t, "IPv6.Decode", func(data []byte) {
		var p IPv6
		if p.Decode(data) == nil {
			_ = p.Marshal()
		}
	})
}

func TestParseUDPNeverPanics(t *testing.T) {
	src := netip.MustParseAddr("192.0.2.1")
	dst := netip.MustParseAddr("192.0.2.2")
	neverPanics(t, "UDP.Decode", func(data []byte) {
		var u UDP
		if u.Decode(data, src, dst) == nil {
			_ = u.Marshal(src, dst)
		}
	})
}

func TestParseTCPNeverPanics(t *testing.T) {
	src := netip.MustParseAddr("2001:db8::1")
	dst := netip.MustParseAddr("2001:db8::2")
	neverPanics(t, "TCP.Decode", func(data []byte) {
		var tc TCP
		if tc.Decode(data, src, dst) == nil {
			_ = tc.Marshal(src, dst)
		}
	})
}

func TestParseICMPNeverPanics(t *testing.T) {
	src := netip.MustParseAddr("2001:db8::1")
	dst := netip.MustParseAddr("2001:db8::2")
	neverPanics(t, "ICMP.DecodeV4", func(data []byte) {
		var ic ICMP
		if ic.DecodeV4(data) == nil {
			_ = ic.MarshalV4()
		}
	})
	neverPanics(t, "ICMP.DecodeV6", func(data []byte) {
		var ic ICMP
		if ic.DecodeV6(data, src, dst) == nil {
			_ = ic.MarshalV6(src, dst)
		}
	})
}

func TestParseARPNeverPanics(t *testing.T) {
	neverPanics(t, "ARP.Decode", func(data []byte) {
		var a ARP
		if a.Decode(data) == nil {
			_ = a.Marshal()
		}
	})
}
