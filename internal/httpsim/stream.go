package httpsim

import (
	"net/netip"
	"strconv"
	"time"

	"repro/internal/hoststack"
)

// This file adds long-lived streaming flows to the HTTP subset: a
// server can declare a paced, chunked body of arbitrary size instead of
// an in-memory []byte, and a client can consume such a flow while
// counting bytes rather than buffering them. Together they generate the
// sustained unicast traffic — CDN-style downloads through NAT64/CLAT —
// that the heavy-traffic workload and BenchmarkHeavyTraffic measure.

// DefaultStreamChunk is the server write size used when a StreamSpec
// does not set one. It is deliberately larger than one TCP MSS so every
// chunk segments into a multi-frame burst on the wire.
const DefaultStreamChunk = 8 << 10

// StreamSpec declares a server-generated streaming body. The server
// sends TotalBytes of deterministic filler in Chunk-sized writes, with
// Pace of virtual time between consecutive writes (0 = emit everything
// immediately, still segmented by TCP). The response is framed with
// Content-Length and connection-close like every other response.
type StreamSpec struct {
	// TotalBytes is the exact body size the flow carries.
	TotalBytes int
	// Chunk is the per-write size (default DefaultStreamChunk).
	Chunk int
	// Pace is the virtual-time gap between writes; it is what makes a
	// flow long-lived rather than one synchronous burst.
	Pace time.Duration
}

// streamPattern is the deterministic filler streamed bodies are built
// from. It is read-only after init and safely shared by every world:
// TCPConn.Send keeps views of it until they are acknowledged, and
// NIC.Transmit copies them, so concurrent sharded fabrics only ever
// read it.
var streamPattern = func() []byte {
	b := make([]byte, DefaultStreamChunk)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}()

// serveStream writes resp's header and then emits the streamed body on
// conn in spec.Chunk-sized writes paced on the host's virtual clock,
// closing the connection after the final write. It aborts quietly if
// the peer goes away mid-flow (connection churn is part of the
// workload, not an error).
func serveStream(h *hoststack.Host, conn *hoststack.TCPConn, resp *Response) {
	spec := resp.Stream
	chunk := spec.Chunk
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}

	if conn.Send(appendHead(nil, resp.Status, spec.TotalBytes, resp.Header)) != nil {
		return
	}

	remaining := spec.TotalBytes
	var write func()
	write = func() {
		if conn.RemoteClosed() {
			// Peer tore the flow down early; stop generating.
			return
		}
		n := remaining
		if n > chunk {
			n = chunk
		}
		for n > 0 {
			w := n
			if w > len(streamPattern) {
				w = len(streamPattern)
			}
			if conn.Send(streamPattern[:w]) != nil {
				return
			}
			remaining -= w
			n -= w
		}
		if remaining <= 0 {
			_ = conn.Close()
			return
		}
		if spec.Pace > 0 {
			h.Net.Clock.AfterFunc(spec.Pace, write)
			return
		}
		write()
	}
	write()
}

// StreamStats summarizes one client-side streaming fetch. Bytes are
// application-level (HTTP header + body octets), counted as they drain
// from the receive buffer — the client never holds the whole body.
type StreamStats struct {
	// Status is the parsed response status code.
	Status int
	// BytesUp is the request bytes the client sent.
	BytesUp int64
	// BytesDown is everything received: header plus body octets.
	BytesDown int64
	// BodyBytes is the body octets alone.
	BodyBytes int64
	// Complete reports the full Content-Length arrived and the server
	// finished the flow (FIN observed).
	Complete bool
}

// StreamAddr performs one GET against addr and consumes the response as
// a flow: bytes are counted and discarded as each segment arrives
// (TCPConn.OnData) instead of accumulating, so a ring drain that
// delivers a whole paced chunk at once never grows the receive buffer
// past one segment. timeout bounds the whole transfer in virtual time;
// a paced long flow needs a correspondingly long timeout.
func StreamAddr(h *hoststack.Host, addr netip.Addr, port uint16, hostHeader, path string, timeout time.Duration) (*StreamStats, error) {
	conn, err := h.DialTCP(addr, port, httpTimeout)
	if err != nil {
		return nil, err
	}
	req := getRequest(hostHeader, path)
	st := &StreamStats{BytesUp: int64(len(req))}

	var head []byte
	headerDone := false
	contentLen := int64(-1)
	conn.OnData = func(*hoststack.TCPConn) {
		for {
			if headerDone {
				// Past the header only the count matters: Discard drains
				// in place and lets the connection reuse its buffer, which
				// never holds more than the segment just appended.
				n := conn.Discard()
				if n == 0 {
					return
				}
				st.BytesDown += int64(n)
				st.BodyBytes += int64(n)
				continue
			}
			b := conn.Recv()
			if len(b) == 0 {
				return
			}
			st.BytesDown += int64(len(b))
			if len(head) == 0 {
				// Recv hands over ownership, so the usual case — header
				// (plus the first batched chunk) in one burst — needs no
				// copy at all.
				head = b
			} else {
				head = append(head, b...)
			}
			start, header, body, ok := parseHead(head)
			if !ok {
				continue
			}
			headerDone = true
			st.BodyBytes += int64(len(head) - body)
			if len(start) >= 2 {
				st.Status, _ = strconv.Atoi(start[1])
			}
			if n, err := strconv.ParseInt(header["content-length"], 10, 64); err == nil {
				contentLen = n
			}
			head = nil // body bytes are only counted from here on
		}
	}
	// An abandoned flow's connection stays in the host's table until the
	// world is reset, so on return it lets go of the callback and the
	// receive buffer.
	defer func() {
		conn.OnData = nil
		conn.Recv() // drops the buffer
	}()
	if err := conn.Send(req); err != nil {
		return nil, err
	}
	h.Net.RunUntil(func() bool {
		return headerDone && conn.RemoteClosed() && (contentLen < 0 || st.BodyBytes >= contentLen)
	}, timeout)
	_ = conn.Close()
	if !headerDone {
		return nil, hoststack.ErrTimeout
	}
	st.Complete = conn.RemoteClosed() && contentLen >= 0 && st.BodyBytes >= contentLen
	return st, nil
}

// Stream fetches an http:// URL as a counted flow, resolving the name
// and trying RFC 6724-ordered addresses like Browse does. It returns
// the stats of the first address that yields a response.
func Stream(h *hoststack.Host, url string, timeout time.Duration) (*StreamStats, error) {
	name, port, path, err := SplitURL(url)
	if err != nil {
		return nil, err
	}
	addrs, _, err := resolve(h, name)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for _, addr := range addrs {
		st, err := StreamAddr(h, addr, port, name, path, timeout)
		if err != nil {
			lastErr = err
			continue
		}
		return st, nil
	}
	return nil, lastErr
}
