// Package httpsim implements a small HTTP/1.1 subset over the host
// stack's simulated TCP: GET requests, virtual hosting via the Host
// header, status codes, redirects and connection-close framing. The
// portal servers (ip6.me, the test-ipv6 mirror) and every browsing
// client in the testbed speak through it.
package httpsim

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"repro/internal/hoststack"
)

// Request is a parsed HTTP request.
type Request struct {
	Method string
	Path   string
	Host   string
	Header map[string]string
	// ClientAddr is the transport-level peer address the server observed —
	// the signal the fixed test-ipv6 scoring logic uses to detect address
	// family and NAT64 traversal.
	ClientAddr netip.Addr
	// ServerAddr is the local address the connection arrived on; the
	// internet cloud routes requests per-IP like real per-site servers.
	ServerAddr netip.Addr
}

// Response is an HTTP response.
type Response struct {
	Status int
	Header map[string]string
	Body   []byte

	// Stream, when non-nil, replaces Body with a server-paced streaming
	// body (see StreamSpec). The handler returns immediately; the server
	// keeps the connection open and emits chunks on the virtual clock.
	Stream *StreamSpec
}

// StatusText renders the few status codes the simulator uses.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 302:
		return "Found"
	case 404:
		return "Not Found"
	case 502:
		return "Bad Gateway"
	default:
		return "Status"
	}
}

// Handler serves a request.
type Handler interface {
	Serve(req *Request) *Response
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req *Request) *Response

// Serve calls fn(req).
func (fn HandlerFunc) Serve(req *Request) *Response { return fn(req) }

// Mux routes by (host, path-prefix); longest path prefix wins, empty
// host matches any.
type Mux struct {
	routes []route
}

type route struct {
	host    string
	prefix  string
	handler Handler
}

// Handle registers a handler for the host (may be "") and path prefix.
func (m *Mux) Handle(host, prefix string, h Handler) {
	m.routes = append(m.routes, route{host: strings.ToLower(strings.TrimSuffix(host, ".")), prefix: prefix, handler: h})
}

// Serve implements Handler.
func (m *Mux) Serve(req *Request) *Response {
	reqHost := strings.ToLower(strings.TrimSuffix(hostOnly(req.Host), "."))
	var best *route
	for i := range m.routes {
		r := &m.routes[i]
		if r.host != "" && r.host != reqHost {
			continue
		}
		if !strings.HasPrefix(req.Path, r.prefix) {
			continue
		}
		if best == nil || len(r.prefix) > len(best.prefix) || (len(r.prefix) == len(best.prefix) && best.host == "" && r.host != "") {
			best = r
		}
	}
	if best == nil {
		return &Response{Status: 404, Body: []byte("not found")}
	}
	return best.handler.Serve(req)
}

func hostOnly(hostport string) string {
	if i := strings.LastIndex(hostport, ":"); i > 0 && !strings.Contains(hostport, "]") {
		return hostport[:i]
	}
	return strings.Trim(hostport, "[]")
}

// Serve attaches an HTTP server to the host on port.
func Serve(h *hoststack.Host, port uint16, handler Handler) {
	h.ListenTCP(port, func(conn *hoststack.TCPConn) {
		var buf []byte
		served := false
		conn.OnData = func(c *hoststack.TCPConn) {
			if served {
				return
			}
			buf = append(buf, c.Recv()...)
			req, ok := parseRequest(buf)
			if !ok {
				return
			}
			served = true
			req.ClientAddr = c.Remote()
			req.ServerAddr = c.LocalAddr()
			resp := handler.Serve(req)
			if resp.Stream != nil {
				serveStream(h, c, resp)
				return
			}
			_ = c.Send(renderResponse(resp))
			_ = c.Close()
		}
	})
}

func parseRequest(b []byte) (*Request, bool) {
	s := string(b)
	idx := strings.Index(s, "\r\n\r\n")
	if idx < 0 {
		return nil, false
	}
	lines := strings.Split(s[:idx], "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 {
		return nil, false
	}
	req := &Request{Method: parts[0], Path: parts[1], Header: make(map[string]string)}
	for _, line := range lines[1:] {
		kv := strings.SplitN(line, ":", 2)
		if len(kv) == 2 {
			req.Header[strings.ToLower(strings.TrimSpace(kv[0]))] = strings.TrimSpace(kv[1])
		}
	}
	req.Host = req.Header["host"]
	return req, true
}

func renderResponse(r *Response) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "HTTP/1.1 %d %s\r\n", r.Status, StatusText(r.Status))
	fmt.Fprintf(&sb, "Content-Length: %d\r\n", len(r.Body))
	fmt.Fprintf(&sb, "Connection: close\r\n")
	for k, v := range r.Header {
		fmt.Fprintf(&sb, "%s: %s\r\n", k, v)
	}
	sb.WriteString("\r\n")
	return append([]byte(sb.String()), r.Body...)
}

// errors for the client side.
var (
	// ErrBadResponse reports an unparseable server response.
	ErrBadResponse = errors.New("httpsim: malformed response")
	// ErrNoAddresses reports a name that resolved to nothing usable.
	ErrNoAddresses = errors.New("httpsim: no usable addresses")
)

// FetchResult captures one client fetch, including which address was
// actually used — the experiments inspect the chosen family.
type FetchResult struct {
	Response  *Response
	UsedAddr  netip.Addr
	UsedName  string // final DNS name (after suffix search), "" for literals
	Redirects int
}

// httpTimeout bounds one request in virtual time.
const httpTimeout = 5 * time.Second

// GetAddr performs one GET against a specific address.
func GetAddr(h *hoststack.Host, addr netip.Addr, port uint16, hostHeader, path string) (*Response, error) {
	conn, err := h.DialTCP(addr, port, httpTimeout)
	if err != nil {
		return nil, err
	}
	req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\nUser-Agent: ipv6lab\r\nConnection: close\r\n\r\n", path, hostHeader)
	if err := conn.Send([]byte(req)); err != nil {
		return nil, err
	}
	var buf []byte
	ok := h.Net.RunUntil(func() bool {
		buf = append(buf, conn.Recv()...)
		return conn.RemoteClosed() && responseComplete(buf)
	}, httpTimeout)
	buf = append(buf, conn.Recv()...)
	_ = conn.Close() // connection: close semantics — both sides finish
	if !ok && !responseComplete(buf) {
		return nil, hoststack.ErrTimeout
	}
	return parseResponse(buf)
}

func responseComplete(b []byte) bool {
	_, err := parseResponse(b)
	return err == nil
}

// ParseResponse decodes a raw HTTP/1.1 response (used by tunnel-style
// transports that carry rendered responses).
func ParseResponse(b []byte) (*Response, error) { return parseResponse(b) }

func parseResponse(b []byte) (*Response, error) {
	s := string(b)
	idx := strings.Index(s, "\r\n\r\n")
	if idx < 0 {
		return nil, ErrBadResponse
	}
	lines := strings.Split(s[:idx], "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return nil, ErrBadResponse
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, ErrBadResponse
	}
	resp := &Response{Status: status, Header: make(map[string]string)}
	for _, line := range lines[1:] {
		kv := strings.SplitN(line, ":", 2)
		if len(kv) == 2 {
			resp.Header[strings.ToLower(strings.TrimSpace(kv[0]))] = strings.TrimSpace(kv[1])
		}
	}
	body := []byte(s[idx+4:])
	if cl, ok := resp.Header["content-length"]; ok {
		n, err := strconv.Atoi(cl)
		if err != nil || len(body) < n {
			return nil, ErrBadResponse
		}
		body = body[:n]
	}
	resp.Body = body
	return resp, nil
}

// Browse fetches a URL of the form http://name[:port]/path the way a
// browser would: resolve the name (unless it is an address literal), try
// the RFC 6724-ordered addresses in sequence, and follow redirects.
func Browse(h *hoststack.Host, url string) (*FetchResult, error) {
	return browse(h, url, 0)
}

// Fetcher adapts a client host to the portal test runner: the returned
// func browses each URL with Browse and keeps only the final response.
// It is assignable to portal.Fetcher.
func Fetcher(h *hoststack.Host) func(url string) (*Response, error) {
	return func(url string) (*Response, error) {
		r, err := Browse(h, url)
		if err != nil {
			return nil, err
		}
		return r.Response, nil
	}
}

func browse(h *hoststack.Host, url string, depth int) (*FetchResult, error) {
	if depth > 5 {
		return nil, errors.New("httpsim: too many redirects")
	}
	name, port, path, err := splitURL(url)
	if err != nil {
		return nil, err
	}
	res := &FetchResult{Redirects: depth}

	var addrs []netip.Addr
	if lit, err := netip.ParseAddr(strings.Trim(name, "[]")); err == nil {
		addrs = []netip.Addr{lit}
	} else {
		lr, err := h.Lookup(name)
		if err != nil {
			return nil, err
		}
		addrs = lr.Addrs
		res.UsedName = lr.Name
	}
	if len(addrs) == 0 {
		return nil, ErrNoAddresses
	}
	var lastErr error
	for _, addr := range addrs {
		resp, err := GetAddr(h, addr, port, name, path)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Status == 302 {
			if loc := resp.Header["location"]; loc != "" {
				sub, err := browse(h, loc, depth+1)
				if err != nil {
					return nil, err
				}
				sub.Redirects = depth + 1
				return sub, nil
			}
		}
		res.Response = resp
		res.UsedAddr = addr
		return res, nil
	}
	if lastErr == nil {
		lastErr = ErrNoAddresses
	}
	return nil, lastErr
}

// SplitURL decomposes an http:// URL into host, port and path.
func SplitURL(url string) (name string, port uint16, path string, err error) {
	return splitURL(url)
}

func splitURL(url string) (name string, port uint16, path string, err error) {
	rest, ok := strings.CutPrefix(url, "http://")
	if !ok {
		return "", 0, "", fmt.Errorf("httpsim: unsupported URL %q", url)
	}
	path = "/"
	if i := strings.Index(rest, "/"); i >= 0 {
		path = rest[i:]
		rest = rest[:i]
	}
	port = 80
	name = rest
	// Bracketed IPv6 literal or host:port.
	if strings.HasPrefix(rest, "[") {
		end := strings.Index(rest, "]")
		if end < 0 {
			return "", 0, "", fmt.Errorf("httpsim: bad IPv6 literal in %q", url)
		}
		name = rest[:end+1]
		if len(rest) > end+1 && rest[end+1] == ':' {
			p, err := strconv.Atoi(rest[end+2:])
			if err != nil {
				return "", 0, "", err
			}
			port = uint16(p)
		}
	} else if i := strings.LastIndex(rest, ":"); i >= 0 && !strings.Contains(rest[:i], ":") {
		p, err := strconv.Atoi(rest[i+1:])
		if err != nil {
			return "", 0, "", err
		}
		port = uint16(p)
		name = rest[:i]
	}
	return name, port, path, nil
}
