package httpsim

import (
	"net/netip"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnswire"
	"repro/internal/hoststack"
	"repro/internal/netsim"
)

func TestRedirectLoopBounded(t *testing.T) {
	net := netsim.NewNetwork()
	client := v6Host(net, "client", "fd00:976a::1")
	server := v6Host(net, "server", "fd00:976a::80")
	sw := netsim.NewSwitch(net)
	sw.AttachPort(client.NIC)
	sw.AttachPort(server.NIC)

	Serve(server, 80, HandlerFunc(func(req *Request) *Response {
		return &Response{Status: 302, Header: map[string]string{"location": "http://[fd00:976a::80]/again"}}
	}))
	if _, err := Browse(client, "http://[fd00:976a::80]/"); err == nil {
		t.Error("infinite redirect loop not bounded")
	}
}

func TestBrowseFallsBackAcrossAddresses(t *testing.T) {
	// A name with one dead AAAA and one live AAAA: the browser tries the
	// ordered list and succeeds on the second (happy-eyeballs-lite).
	net := netsim.NewNetwork()
	client := v6Host(net, "client", "fd00:976a::1")
	server := v6Host(net, "server", "fd00:976a::80")
	sw := netsim.NewSwitch(net)
	sw.AttachPort(client.NIC)
	sw.AttachPort(server.NIC)
	Serve(server, 80, HandlerFunc(func(req *Request) *Response {
		return &Response{Status: 200, Body: []byte("alive")}
	}))

	// Host with no DNS: inject a resolver-free path by using literals via
	// a tiny in-test lookup: Browse needs a name, so bind a DNS server.
	dnsHost := v6Host(net, "dns", "fd00:976a::53")
	sw.AttachPort(dnsHost.NIC)
	zoneAddr := netip.MustParseAddr("fd00:976a::53")
	hoststack.AttachDNSServer(dnsHost, multiAAAAResolver{})
	client.DNSOverride = []netip.Addr{zoneAddr}

	r, err := Browse(client, "http://multi.example/")
	if err != nil {
		t.Fatalf("browse: %v", err)
	}
	if string(r.Response.Body) != "alive" {
		t.Errorf("body = %q", r.Response.Body)
	}
	if r.UsedAddr != netip.MustParseAddr("fd00:976a::80") {
		t.Errorf("used %v, want the live address after fallback", r.UsedAddr)
	}
}

// multiAAAAResolver answers multi.example with a dead then a live AAAA.
// Both share the ULA label/scope, so RFC 6724 leaves resolver order
// intact (rule 10) and the dead address is tried first.
type multiAAAAResolver struct{}

func (multiAAAAResolver) Resolve(q dnswire.Question) (*dnswire.Message, error) {
	resp := dns.NoError()
	if q.Type == dnswire.TypeAAAA {
		resp.Answers = []dnswire.RR{
			{Name: q.Name, Type: dnswire.TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("fd00:976a::dead")},
			{Name: q.Name, Type: dnswire.TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("fd00:976a::80")},
		}
	}
	return resp, nil
}
