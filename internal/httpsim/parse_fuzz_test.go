package httpsim_test

import (
	"bytes"
	"maps"
	"net/netip"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/portal"
	"repro/internal/profiles"
	"repro/internal/testbed"
)

// FuzzParseResponse holds the response parser to two properties: it
// never panics, and a parsed response, rendered again by the server's
// encoder, parses to the same status, headers and body. The encoder
// always writes Content-Length and Connection: close ahead of the
// response's own header fields, so the second parse carries those two
// unless the first already had them. Seeds are the responses the
// clients of a default world receive: the portal pages, the 404 of an
// unknown site and the head of a CDN stream, plus a rendered 302.

// seedStreamCap bounds a captured response, so a CDN stream
// contributes its head and first chunk rather than the whole flow.
const seedStreamCap = 4 << 10

// goldenResponses runs the seed world once per test binary and returns
// the byte streams its HTTP servers sent, one per connection.
var goldenResponses = sync.OnceValues(func() ([][]byte, error) {
	type conn struct {
		server, client netip.Addr
		port           uint16
	}
	var order []conn
	streams := make(map[conn][]byte)
	tap := func(_ int, f netsim.Frame) bool {
		var src, dst netip.Addr
		var payload []byte
		var v4 packet.IPv4
		var v6 packet.IPv6
		switch {
		case f.EtherType == netsim.EtherTypeIPv4 && v4.Decode(f.Payload) == nil && v4.Protocol == packet.ProtoTCP:
			src, dst, payload = v4.Src, v4.Dst, v4.Payload
		case f.EtherType == netsim.EtherTypeIPv6 && v6.Decode(f.Payload) == nil && v6.NextHeader == packet.ProtoTCP:
			src, dst, payload = v6.Src, v6.Dst, v6.Payload
		default:
			return true
		}
		var seg packet.TCP
		if seg.Decode(payload, src, dst) != nil || seg.SrcPort != 80 || len(seg.Payload) == 0 {
			return true
		}
		k := conn{src, dst, seg.DstPort}
		if _, ok := streams[k]; !ok {
			order = append(order, k)
		}
		if room := seedStreamCap - len(streams[k]); room > 0 {
			streams[k] = append(streams[k], seg.Payload[:min(room, len(seg.Payload))]...)
		}
		return true
	}
	tb, err := testbed.Build(testbed.DefaultTopology(testbed.DefaultOptions()))
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	tb.Switch.AddFilter(tap)
	for _, b := range []hoststack.Behavior{profiles.IOS(), profiles.WindowsXP()} {
		c := tb.AddClient("seed-"+b.Name, b)
		portal.Run(httpsim.Fetcher(c), tb.Mirror)
		if _, err := httpsim.Browse(c, "http://ip6.me/"); err != nil {
			return nil, err
		}
		// A name the internet resolves but no site serves: the 404 page.
		_, _ = httpsim.Browse(c, "http://ipv4only.arpa/")
		url := "http://" + testbed.StreamCDNName + "/flow/65536/8192/10"
		if _, err := httpsim.Stream(c, url, 30*time.Second); err != nil {
			return nil, err
		}
	}
	var out [][]byte
	for _, k := range order {
		out = append(out, streams[k])
	}
	return out, nil
})

func FuzzParseResponse(f *testing.F) {
	seeds, err := goldenResponses()
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("golden run produced no HTTP responses")
	}
	for _, b := range seeds {
		f.Add(b)
	}
	f.Add(httpsim.RenderResponse(&httpsim.Response{
		Status: 302, Header: map[string]string{"location": "http://test-ipv6.com/"},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := httpsim.ParseResponse(b)
		if err != nil {
			return
		}
		wire := httpsim.RenderResponse(r)
		again, err := httpsim.ParseResponse(wire)
		if err != nil {
			t.Fatalf("re-parsing the %d-byte rendering failed: %v\n%q", len(wire), err, wire)
		}
		want := map[string]string{"content-length": strconv.Itoa(len(r.Body)), "connection": "close"}
		maps.Copy(want, r.Header)
		if again.Status != r.Status || !maps.Equal(again.Header, want) || !bytes.Equal(again.Body, r.Body) {
			t.Fatalf("parse → render → parse changed the response:\nfirst  %d %q %q\nsecond %d %q %q",
				r.Status, r.Header, r.Body, again.Status, again.Header, again.Body)
		}
	})
}
