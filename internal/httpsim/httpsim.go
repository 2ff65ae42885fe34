// Package httpsim implements a small HTTP/1.1 subset over the host
// stack's simulated TCP: GET requests, virtual hosting via the Host
// header, status codes, redirects and connection-close framing. The
// portal servers (ip6.me, the test-ipv6 mirror) and every browsing
// client in the testbed speak through it.
package httpsim

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"sort"
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

// parseHead parses the head of the HTTP/1.1 message at the start of b:
// the start line split at its first two spaces, and the header fields,
// names lower-cased and both sides trimmed. ok is false until b holds
// the blank line that ends the head; body is the offset of the first
// byte after it.
func parseHead(b []byte) (start []string, header map[string]string, body int, ok bool) {
	end := bytes.Index(b, []byte("\r\n\r\n"))
	if end < 0 {
		return nil, nil, 0, false
	}
	line, rest, _ := strings.Cut(string(b[:end]), "\r\n")
	start = strings.SplitN(line, " ", 3)
	header = make(map[string]string)
	for rest != "" {
		line, rest, _ = strings.Cut(rest, "\r\n")
		if k, v, found := strings.Cut(line, ":"); found {
			header[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
		}
	}
	return start, header, end + 4, true
}

// appendHead appends the head of a connection-close response: the
// status line, Content-Length, Connection: close, the extra header
// fields sorted by name (so a response renders to the same bytes every
// run) and the blank line.
func appendHead(b []byte, status, contentLength int, header map[string]string) []byte {
	b = fmt.Appendf(b, "HTTP/1.1 %d %s\r\nContent-Length: %d\r\nConnection: close\r\n",
		status, StatusText(status), contentLength)
	names := make([]string, 0, len(header))
	for k := range header {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		b = fmt.Appendf(b, "%s: %s\r\n", k, header[k])
	}
	return append(b, "\r\n"...)
}

// getRequest renders the GET request every client fetch sends.
func getRequest(hostHeader, path string) []byte {
	return fmt.Appendf(nil, "GET %s HTTP/1.1\r\nHost: %s\r\nUser-Agent: ipv6lab\r\nConnection: close\r\n\r\n",
		path, hostHeader)
}

func parseRequest(b []byte) (*Request, bool) {
	start, header, _, ok := parseHead(b)
	if !ok || len(start) != 3 {
		return nil, false
	}
	return &Request{Method: start[0], Path: start[1], Host: header["host"], Header: header}, true
}

func renderResponse(r *Response) []byte {
	return append(appendHead(nil, r.Status, len(r.Body), r.Header), r.Body...)
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
	if err := conn.Send(getRequest(hostHeader, path)); err != nil {
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
	return ParseResponse(buf)
}

func responseComplete(b []byte) bool {
	_, err := ParseResponse(b)
	return err == nil
}

// ParseResponse decodes a raw HTTP/1.1 response. A Content-Length
// header bounds the body; without one the body runs to the end of b.
func ParseResponse(b []byte) (*Response, error) {
	start, header, body, ok := parseHead(b)
	if !ok || len(start) < 2 || !strings.HasPrefix(start[0], "HTTP/1.") {
		return nil, ErrBadResponse
	}
	status, err := strconv.Atoi(start[1])
	if err != nil {
		return nil, ErrBadResponse
	}
	end := len(b)
	if cl, ok := header["content-length"]; ok {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 || end-body < n {
			return nil, ErrBadResponse
		}
		end = body + n
	}
	return &Response{Status: status, Header: header, Body: bytes.Clone(b[body:end])}, nil
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
	name, port, path, err := SplitURL(url)
	if err != nil {
		return nil, err
	}
	addrs, usedName, err := resolve(h, name)
	if err != nil {
		return nil, err
	}
	res := &FetchResult{Redirects: depth, UsedName: usedName}
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

// resolve returns the addresses to try for a URL's host, in RFC 6724
// order: an address literal as is, a name through the host's resolver.
// usedName is the name the resolver answered for ("" for a literal).
func resolve(h *hoststack.Host, host string) (addrs []netip.Addr, usedName string, err error) {
	if lit, err := netip.ParseAddr(strings.Trim(host, "[]")); err == nil {
		return []netip.Addr{lit}, "", nil
	}
	lr, err := h.Lookup(host)
	if err != nil {
		return nil, "", err
	}
	if len(lr.Addrs) == 0 {
		return nil, "", ErrNoAddresses
	}
	return lr.Addrs, lr.Name, nil
}

// SplitURL decomposes an http:// URL into host, port and path.
func SplitURL(url string) (name string, port uint16, path string, err error) {
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
