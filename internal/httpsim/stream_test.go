package httpsim

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestStreamPacedFlow runs a paced 256 KiB CDN-style flow end to end
// and checks exact byte accounting on the client plus ring batching on
// the fabric (a chunked flow is exactly the burst shape the unicast
// rings amortize).
func TestStreamPacedFlow(t *testing.T) {
	net := netsim.NewNetwork()
	client := v6Host(net, "client", "fd00:976a::1")
	server := v6Host(net, "server", "fd00:976a::80")
	sw := netsim.NewSwitch(net)
	sw.AttachPort(client.NIC)
	sw.AttachPort(server.NIC)

	const total = 256 << 10
	Serve(server, 80, HandlerFunc(func(req *Request) *Response {
		return &Response{Status: 200, Stream: &StreamSpec{TotalBytes: total, Chunk: 8 << 10, Pace: 5 * time.Millisecond}}
	}))

	st, err := StreamAddr(client, netip.MustParseAddr("fd00:976a::80"), 80, "cdn.test", "/big", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != 200 || !st.Complete {
		t.Fatalf("stream: status=%d complete=%v", st.Status, st.Complete)
	}
	if st.BodyBytes != total {
		t.Errorf("BodyBytes = %d, want %d", st.BodyBytes, total)
	}
	if st.BytesDown <= st.BodyBytes {
		t.Errorf("BytesDown %d should exceed BodyBytes %d by the header", st.BytesDown, st.BodyBytes)
	}
	if st.BytesUp == 0 {
		t.Error("BytesUp = 0, want request bytes")
	}

	stats := net.Stats()
	if stats.UnicastRingFrames == 0 {
		t.Error("no frames rode the unicast ring fast path")
	}
	if stats.UnicastRingBatches >= stats.UnicastRingFrames {
		t.Errorf("no batching: %d batches for %d ring frames",
			stats.UnicastRingBatches, stats.UnicastRingFrames)
	}
}

// TestStreamClientAbandonsFlow checks connection churn: a client that
// tears down mid-flow leaves a quiescent fabric (the server stops
// generating instead of pacing chunks at a dead connection forever).
func TestStreamClientAbandonsFlow(t *testing.T) {
	net := netsim.NewNetwork()
	client := v6Host(net, "client", "fd00:976a::1")
	server := v6Host(net, "server", "fd00:976a::80")
	sw := netsim.NewSwitch(net)
	sw.AttachPort(client.NIC)
	sw.AttachPort(server.NIC)

	Serve(server, 80, HandlerFunc(func(req *Request) *Response {
		return &Response{Status: 200, Stream: &StreamSpec{TotalBytes: 1 << 20, Chunk: 4 << 10, Pace: 10 * time.Millisecond}}
	}))

	conn, err := client.DialTCP(netip.MustParseAddr("fd00:976a::80"), 80, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("GET /big HTTP/1.1\r\nHost: cdn.test\r\nConnection: close\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	net.RunFor(25 * time.Millisecond) // let a few chunks flow
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	ran := net.Drain(50 * time.Millisecond)
	if ran >= 1<<22 {
		t.Fatal("fabric did not quiesce after client abandoned the flow")
	}
	// The server must have noticed the FIN within one pace interval and
	// stopped: draining again finds (almost) nothing new.
	if again := net.Drain(50 * time.Millisecond); again > 4 {
		t.Errorf("server still generating after churned flow: %d events", again)
	}
}

// TestStreamBurstNoPace covers the pace=0 path: the whole body is
// emitted in one synchronous burst of TCP segments.
func TestStreamBurstNoPace(t *testing.T) {
	net := netsim.NewNetwork()
	client := v6Host(net, "client", "fd00:976a::1")
	server := v6Host(net, "server", "fd00:976a::80")
	sw := netsim.NewSwitch(net)
	sw.AttachPort(client.NIC)
	sw.AttachPort(server.NIC)

	const total = 64<<10 + 7 // deliberately not chunk-aligned
	Serve(server, 80, HandlerFunc(func(req *Request) *Response {
		return &Response{Status: 200, Stream: &StreamSpec{TotalBytes: total}}
	}))
	st, err := StreamAddr(client, netip.MustParseAddr("fd00:976a::80"), 80, "cdn.test", "/burst", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.BodyBytes != total {
		t.Fatalf("burst: complete=%v body=%d want %d", st.Complete, st.BodyBytes, total)
	}
}

// TestStreamOrderIndependentOfRings pins that a streaming flow produces
// identical client-side accounting with rings on and off — the fast
// path must be invisible to applications.
func TestStreamOrderIndependentOfRings(t *testing.T) {
	run := func(rings bool) *StreamStats {
		net := netsim.NewNetwork()
		net.SetUnicastRings(rings)
		client := v6Host(net, "client", "fd00:976a::1")
		server := v6Host(net, "server", "fd00:976a::80")
		sw := netsim.NewSwitch(net)
		sw.AttachPort(client.NIC)
		sw.AttachPort(server.NIC)
		Serve(server, 80, HandlerFunc(func(req *Request) *Response {
			return &Response{Status: 200, Stream: &StreamSpec{TotalBytes: 96 << 10, Chunk: 8 << 10, Pace: 3 * time.Millisecond}}
		}))
		st, err := StreamAddr(client, netip.MustParseAddr("fd00:976a::80"), 80, "cdn.test", "/x", 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	on, off := run(true), run(false)
	if fmt.Sprintf("%+v", on) != fmt.Sprintf("%+v", off) {
		t.Errorf("stream stats diverge:\nrings on:  %+v\nrings off: %+v", on, off)
	}
}
