package hoststack

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/dhcp4"
)

func TestDHCPLeaseRenewalAtT1(t *testing.T) {
	net := newTestNet()
	client := New(net, "pc", Behavior{Name: "pc", IPv4Enabled: true})
	serverHost, srv := dhcpServerHost(net, t, dhcp4.ServerConfig{
		ServerID:   netip.MustParseAddr("192.168.12.250"),
		PoolStart:  netip.MustParseAddr("192.168.12.100"),
		PoolEnd:    netip.MustParseAddr("192.168.12.199"),
		SubnetMask: netip.MustParseAddr("255.255.255.0"),
		LeaseTime:  time.Hour,
	})
	lanWith(net, client, serverHost)

	client.Start()
	net.RunFor(time.Second)
	addr := client.IPv4Addr()
	if !addr.IsValid() {
		t.Fatal("no lease")
	}

	// Run past T1 (30 min): the client renews and keeps its address.
	net.RunFor(31 * time.Minute)
	if n := countEvents(client, "dhcp renewed"); n != 1 {
		t.Errorf("renewals = %d, want 1", n)
	}
	if client.IPv4Addr() != addr {
		t.Errorf("address changed across renewal: %v -> %v", client.IPv4Addr(), addr)
	}
	// The server-side lease is still alive well past the original expiry.
	net.RunFor(35 * time.Minute) // total > 1h
	if _, ok := srv.LeaseFor([6]byte(client.MAC())); !ok {
		t.Error("server lease expired despite renewals")
	}
	if n := countEvents(client, "dhcp renewed"); n < 2 {
		t.Errorf("renewals = %d, want ongoing T1 cycle", n)
	}
}

func TestDHCPRenewalStopsAfterNAK(t *testing.T) {
	net := newTestNet()
	client := New(net, "pc", Behavior{Name: "pc", IPv4Enabled: true})
	serverHost, srv := dhcpServerHost(net, t, dhcp4.ServerConfig{
		ServerID:   netip.MustParseAddr("192.168.12.250"),
		PoolStart:  netip.MustParseAddr("192.168.12.100"),
		PoolEnd:    netip.MustParseAddr("192.168.12.199"),
		SubnetMask: netip.MustParseAddr("255.255.255.0"),
		LeaseTime:  time.Hour,
	})
	lanWith(net, client, serverHost)
	client.Start()
	net.RunFor(time.Second)

	// Release the lease server-side so the renewal gets a NAK, forcing a
	// fresh DORA.
	rel := dhcp4.NewMessage(dhcp4.OpRequest, 0, [6]byte(client.MAC()))
	rel.SetType(dhcp4.Release)
	srv.Handle(rel)

	net.RunFor(31 * time.Minute)
	// After the NAK the client restarted and re-bound.
	if !client.IPv4Addr().IsValid() {
		t.Error("client did not recover from NAK")
	}
}
