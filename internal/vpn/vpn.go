// Package vpn models the corporate VPN behaviour behind the paper's
// Figs. 8 and 11: an IPv4-only tunnel to vpn.anl.gov with a
// split-tunnel exception list expressed as IPv4 literals (the approved
// VTC platforms). Traffic matching the exceptions goes direct over the
// local network's IPv4 path; everything else rides the tunnel and
// egresses from the enterprise's IPv4 address — which is why a VPN'd
// client scores 0/10 on a venue-local test-ipv6 mirror (Fig. 11), and
// why further restricting IPv4 at the venue breaks the approved VTC
// traffic (Fig. 8).
package vpn

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"repro/internal/dnswire"
	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/inet"
)

// TunnelPort is the concentrator's TCP service port.
const TunnelPort uint16 = 443

// Errors surfaced by the VPN layer.
var (
	ErrNotConnected = errors.New("vpn: tunnel not connected")
	ErrUnreachable  = errors.New("vpn: destination unreachable from VPN egress")
)

// Concentrator is the enterprise-side tunnel endpoint. It lives on the
// internet cloud, terminates the IPv4-only tunnel, and fetches URLs on
// the client's behalf from the enterprise IPv4 egress. It resolves
// names with A records only (the tunnel is IPv4-only) and cannot reach
// venue-local services.
type Concentrator struct {
	Inet *inet.Internet
	// GatewayV4 is vpn.anl.gov's address (where the service listens).
	GatewayV4 netip.Addr
	// EgressV4 is the enterprise source address for proxied fetches.
	EgressV4 netip.Addr
	// VenueLocal lists addresses only reachable inside the venue (the
	// SC23 mirror): tunneled traffic cannot get back in.
	VenueLocal map[netip.Addr]bool

	// Fetches counts proxied requests; Refused counts venue-local denials.
	Fetches uint64
	Refused uint64
}

// Install binds the tunnel service to the gateway address.
func (k *Concentrator) Install() {
	k.Inet.Host.ListenTCP(TunnelPort, func(conn *hoststack.TCPConn) {
		var buf []byte
		conn.OnData = func(c *hoststack.TCPConn) {
			buf = append(buf, c.Recv()...)
			line, ok := strings.CutSuffix(string(buf), "\r\n")
			if !ok {
				return
			}
			resp := k.handle(line)
			_ = c.Send(resp)
			_ = c.Close()
		}
	})
}

// handle processes one "FETCH <url>" tunnel command and returns the
// rendered HTTP response (or a synthesized error response).
func (k *Concentrator) handle(line string) []byte {
	url, ok := strings.CutPrefix(line, "FETCH ")
	if !ok {
		return renderError(400, "bad tunnel command")
	}
	name, _, path, err := httpsim.SplitURL(url)
	if err != nil {
		return renderError(400, err.Error())
	}
	var dst netip.Addr
	if lit, err := netip.ParseAddr(strings.Trim(name, "[]")); err == nil {
		dst = lit
	} else {
		// IPv4-only resolution: the tunnel carries no IPv6.
		resp, rerr := k.Inet.Resolver().Resolve(dnswire.Question{
			Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN,
		})
		if rerr != nil || resp.Rcode != dnswire.RcodeSuccess {
			return renderError(502, "name resolution failed over IPv4-only tunnel")
		}
		for _, rr := range resp.Answers {
			if rr.Type == dnswire.TypeA {
				dst = rr.Addr
				break
			}
		}
	}
	if !dst.IsValid() || dst.Is6() {
		return renderError(502, "no IPv4 address for "+name)
	}
	if k.VenueLocal[dst] {
		k.Refused++
		return renderError(502, "destination is venue-local; unreachable from VPN egress")
	}
	k.Fetches++
	resp := k.Inet.ServeLocal(dst, &httpsim.Request{
		Method: "GET", Path: path, Host: name,
		Header:     map[string]string{"host": name},
		ClientAddr: k.EgressV4,
	})
	return renderHTTP(resp)
}

func renderError(status int, msg string) []byte {
	return renderHTTP(&httpsim.Response{Status: status, Body: []byte(msg)})
}

func renderHTTP(r *httpsim.Response) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "HTTP/1.1 %d %s\r\n", r.Status, httpsim.StatusText(r.Status))
	fmt.Fprintf(&sb, "Content-Length: %d\r\n\r\n", len(r.Body))
	return append([]byte(sb.String()), r.Body...)
}

// Client is the device-side VPN software.
type Client struct {
	Host *hoststack.Host
	// GatewayV4 is the concentrator's address (an IPv4 literal in the
	// client configuration, like real enterprise profiles).
	GatewayV4 netip.Addr
	// SplitTunnel lists IPv4 literal prefixes that bypass the tunnel —
	// the approved VTC platforms.
	SplitTunnel []netip.Prefix

	Connected bool
}

// tunnelTimeout bounds tunnel operations in virtual time.
const tunnelTimeout = 5 * time.Second

// Connect establishes the tunnel (one TCP handshake to the gateway over
// the local network's native IPv4 path).
func (c *Client) Connect() error {
	conn, err := c.Host.DialTCP(c.GatewayV4, TunnelPort, tunnelTimeout)
	if err != nil {
		return fmt.Errorf("vpn: connect: %w", err)
	}
	_ = conn.Close()
	c.Connected = true
	return nil
}

// splitTunneled reports whether an address bypasses the tunnel.
func (c *Client) splitTunneled(addr netip.Addr) bool {
	for _, p := range c.SplitTunnel {
		if addr.Is4() && p.Contains(addr) {
			return true
		}
	}
	return false
}

// Fetch retrieves a URL under VPN policy: split-tunnel-matched IPv4
// literals go direct; everything else rides the tunnel.
func (c *Client) Fetch(url string) (*httpsim.Response, error) {
	name, _, _, err := httpsim.SplitURL(url)
	if err != nil {
		return nil, err
	}
	if lit, perr := netip.ParseAddr(strings.Trim(name, "[]")); perr == nil && c.splitTunneled(lit) {
		return httpsim.Fetcher(c.Host)(url)
	}
	return c.fetchViaTunnel(url)
}

func (c *Client) fetchViaTunnel(url string) (*httpsim.Response, error) {
	if !c.Connected {
		return nil, ErrNotConnected
	}
	conn, err := c.Host.DialTCP(c.GatewayV4, TunnelPort, tunnelTimeout)
	if err != nil {
		return nil, fmt.Errorf("vpn: tunnel down: %w", err)
	}
	if err := conn.Send([]byte("FETCH " + url + "\r\n")); err != nil {
		return nil, err
	}
	var buf []byte
	ok := c.Host.Net.RunUntil(func() bool {
		buf = append(buf, conn.Recv()...)
		return conn.RemoteClosed()
	}, tunnelTimeout)
	buf = append(buf, conn.Recv()...)
	_ = conn.Close()
	if !ok && len(buf) == 0 {
		return nil, hoststack.ErrTimeout
	}
	resp, err := httpsim.ParseResponse(buf)
	if err != nil {
		return nil, err
	}
	if resp.Status == 502 {
		return resp, ErrUnreachable
	}
	return resp, nil
}
