package httpsim

import (
	"net/netip"
	"strings"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnswire"
	"repro/internal/hoststack"
	"repro/internal/netsim"
)

var ulaPrefix = netip.MustParsePrefix("fd00:976a::/64")

func v6Host(net *netsim.Network, name, addr string) *hoststack.Host {
	h := hoststack.New(net, name, hoststack.Behavior{Name: name, IPv6Enabled: true, SupportsRDNSS: true})
	h.AddIPv6Static(netip.MustParseAddr(addr), ulaPrefix)
	return h
}

func TestSplitURL(t *testing.T) {
	cases := []struct {
		url        string
		name, path string
		port       uint16
		wantErr    bool
	}{
		{"http://ip6.me/", "ip6.me", "/", 80, false},
		{"http://ip6.me", "ip6.me", "/", 80, false},
		{"http://test-ipv6.com:8080/ip/", "test-ipv6.com", "/ip/", 8080, false},
		{"http://23.153.8.71/x", "23.153.8.71", "/x", 80, false},
		{"http://[64:ff9b::1]/y", "[64:ff9b::1]", "/y", 80, false},
		{"http://[64:ff9b::1]:8443/", "[64:ff9b::1]", "/", 8443, false},
		{"https://secure.example/", "", "", 0, true},
		{"http://[broken/", "", "", 0, true},
	}
	for _, c := range cases {
		name, port, path, err := SplitURL(c.url)
		if (err != nil) != c.wantErr {
			t.Errorf("SplitURL(%q) err = %v", c.url, err)
			continue
		}
		if err != nil {
			continue
		}
		if name != c.name || port != c.port || path != c.path {
			t.Errorf("SplitURL(%q) = %q/%d/%q, want %q/%d/%q", c.url, name, port, path, c.name, c.port, c.path)
		}
	}
}

func TestGetOverSimulatedTCP(t *testing.T) {
	net := netsim.NewNetwork()
	client := v6Host(net, "client", "fd00:976a::1")
	server := v6Host(net, "server", "fd00:976a::80")
	sw := netsim.NewSwitch(net)
	sw.AttachPort(client.NIC)
	sw.AttachPort(server.NIC)

	Serve(server, 80, HandlerFunc(func(req *Request) *Response {
		if req.Path != "/hello" || req.Method != "GET" {
			return &Response{Status: 404, Body: []byte("nope")}
		}
		return &Response{Status: 200, Body: []byte("hi " + req.ClientAddr.String())}
	}))

	resp, err := GetAddr(client, netip.MustParseAddr("fd00:976a::80"), 80, "server.test", "/hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "hi fd00:976a::1") {
		t.Errorf("resp = %d %q", resp.Status, resp.Body)
	}
	// 404 path.
	resp, err = GetAddr(client, netip.MustParseAddr("fd00:976a::80"), 80, "server.test", "/missing")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Errorf("status = %d", resp.Status)
	}
}

func TestBrowseResolvesAndFollowsRedirect(t *testing.T) {
	net := netsim.NewNetwork()
	client := v6Host(net, "client", "fd00:976a::1")
	server := v6Host(net, "server", "fd00:976a::80")
	dnsHost := v6Host(net, "dns", "fd00:976a::53")
	sw := netsim.NewSwitch(net)
	for _, h := range []*hoststack.Host{client, server, dnsHost} {
		sw.AttachPort(h.NIC)
	}
	zone := dns.NewZone("example")
	zone.MustAdd(dnswire.RR{Name: "www", Type: dnswire.TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("fd00:976a::80")})
	zone.MustAdd(dnswire.RR{Name: "other", Type: dnswire.TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("fd00:976a::80")})
	hoststack.AttachDNSServer(dnsHost, zone)
	client.DNSOverride = []netip.Addr{netip.MustParseAddr("fd00:976a::53")}

	Serve(server, 80, HandlerFunc(func(req *Request) *Response {
		if req.Host == "www.example" && req.Path == "/" {
			return &Response{Status: 302, Header: map[string]string{"location": "http://other.example/final"}}
		}
		if req.Host == "other.example" && req.Path == "/final" {
			return &Response{Status: 200, Body: []byte("landed")}
		}
		return &Response{Status: 404}
	}))

	r, err := Browse(client, "http://www.example/")
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Response.Body) != "landed" || r.Redirects != 1 {
		t.Errorf("r = %+v body=%q", r, r.Response.Body)
	}
}

func TestBrowseLiteralAddress(t *testing.T) {
	net := netsim.NewNetwork()
	client := v6Host(net, "client", "fd00:976a::1")
	server := v6Host(net, "server", "fd00:976a::80")
	sw := netsim.NewSwitch(net)
	sw.AttachPort(client.NIC)
	sw.AttachPort(server.NIC)
	Serve(server, 80, HandlerFunc(func(req *Request) *Response {
		return &Response{Status: 200, Body: []byte("literal ok")}
	}))
	r, err := Browse(client, "http://[fd00:976a::80]/")
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Response.Body) != "literal ok" {
		t.Errorf("body = %q", r.Response.Body)
	}
	if r.UsedName != "" {
		t.Errorf("UsedName = %q for a literal", r.UsedName)
	}
}

func TestParseResponseBadInputs(t *testing.T) {
	for _, b := range []string{"", "HTTP/1.1\r\n\r\n", "garbage\r\n\r\n", "HTTP/1.1 abc OK\r\n\r\n"} {
		if _, err := ParseResponse([]byte(b)); err == nil {
			t.Errorf("accepted %q", b)
		}
	}
	// Content-Length shorter than body -> truncate; longer -> error.
	r, err := ParseResponse([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nabcd"))
	if err != nil || string(r.Body) != "ab" {
		t.Errorf("truncation: %v %q", err, r.Body)
	}
	if _, err := ParseResponse([]byte("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc")); err == nil {
		t.Error("short body accepted")
	}
	// A negative length used to slice the body out of bounds and panic.
	if _, err := ParseResponse([]byte("HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\nabc")); err == nil {
		t.Error("negative Content-Length accepted")
	}
}

// TestResponseHeaderFieldsSorted pins that a response's extra header
// fields go on the wire sorted by name, whatever order they were set
// in, so two renders of one response are the same bytes.
func TestResponseHeaderFieldsSorted(t *testing.T) {
	r := &Response{Status: 302, Header: map[string]string{}}
	for _, k := range []string{"X-Zone", "Location", "Expires", "Cache-Control", "X-Accel"} {
		r.Header[k] = "v"
	}
	want := "HTTP/1.1 302 Found\r\nContent-Length: 0\r\nConnection: close\r\n" +
		"Cache-Control: v\r\nExpires: v\r\nLocation: v\r\nX-Accel: v\r\nX-Zone: v\r\n\r\n"
	for i := 0; i < 20; i++ {
		if got := string(renderResponse(r)); got != want {
			t.Fatalf("render %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

func TestStatusText(t *testing.T) {
	if StatusText(200) != "OK" || StatusText(404) != "Not Found" || StatusText(999) != "Status" {
		t.Error("StatusText wrong")
	}
}
