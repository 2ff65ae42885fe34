package hoststack

import (
	"net/netip"
	"time"

	"repro/internal/clat"
	"repro/internal/packet"
)

// tcpKey identifies a connection by remote endpoint and local port.
type tcpKey struct {
	remote     netip.Addr
	remotePort uint16
	localPort  uint16
}

// TCP connection states (simplified; the fabric is reliable and ordered,
// so no retransmission or reassembly machinery is needed).
const (
	tcpSynSent     = "syn-sent"
	tcpSynReceived = "syn-received"
	tcpEstablished = "established"
	tcpClosed      = "closed"
)

// TCPConn is a minimal reliable stream over the simulated fabric.
type TCPConn struct {
	h          *Host
	local      netip.Addr
	remote     netip.Addr
	localPort  uint16
	remotePort uint16

	state   string
	sndNxt  uint32
	rcvNxt  uint32
	recvBuf []byte

	// unacked holds sent-but-unacknowledged data segments so Packet Too
	// Big handling can retransmit them re-split to the new path MTU.
	unacked []tcpSegment

	remoteClosed bool
	refused      bool

	// OnData, when set, fires after new bytes are appended to the
	// receive buffer (server handlers use it).
	OnData func(*TCPConn)
}

// Remote returns the peer address as the application sees it (through a
// CLAT, the embedded IPv4 address).
func (c *TCPConn) Remote() netip.Addr { return c.remote }

// LocalAddr returns the connection's local (source) address.
func (c *TCPConn) LocalAddr() netip.Addr { return c.local }

// RemoteClosed reports whether the peer sent FIN.
func (c *TCPConn) RemoteClosed() bool { return c.remoteClosed }

// Recv drains and returns the receive buffer.
func (c *TCPConn) Recv() []byte {
	b := c.recvBuf
	c.recvBuf = nil
	return b
}

// Discard empties the receive buffer in place and reports how many
// bytes it dropped. Unlike Recv, the buffer's storage stays with the
// connection for reuse, so a consumer that only counts bytes (a
// streaming client draining a batched burst) does not force a fresh
// allocation per burst.
func (c *TCPConn) Discard() int {
	n := len(c.recvBuf)
	c.recvBuf = c.recvBuf[:0]
	return n
}

// Peek returns the buffered bytes without draining them.
func (c *TCPConn) Peek() []byte { return c.recvBuf }

// tcpSegment is a retransmittable unit of sent data (or a FIN).
type tcpSegment struct {
	seq     uint32
	payload []byte
	fin     bool
}

// seqLen is the sequence space the segment consumes.
func (s tcpSegment) seqLen() uint32 {
	if s.fin {
		return 1
	}
	return uint32(len(s.payload))
}

// Send transmits data, segmented to the current path MTU toward the
// peer. The segments are views of data, retained until acknowledged so
// PTB-triggered retransmission can re-split them: Send keeps data, and
// the caller must not modify it afterwards, just as Recv hands its
// buffer over.
func (c *TCPConn) Send(data []byte) error {
	mss := c.h.tcpMaxPayload(c.remote)
	if mss < 64 {
		mss = 64
	}
	for len(data) > 0 {
		n := len(data)
		if n > mss {
			n = mss
		}
		seg := tcpSegment{seq: c.sndNxt, payload: data[:n:n]}
		data = data[n:]
		c.unacked = append(c.unacked, seg)
		c.sndNxt += uint32(n)
		if err := c.transmitData(seg); err != nil {
			return err
		}
	}
	return nil
}

// transmitData sends one data or FIN segment.
func (c *TCPConn) transmitData(seg tcpSegment) error {
	flags := packet.TCPAck | packet.TCPPsh
	if seg.fin {
		flags = packet.TCPAck | packet.TCPFin
	}
	return c.transmit(&packet.TCP{
		SrcPort: c.localPort, DstPort: c.remotePort,
		Seq: seg.seq, Ack: c.rcvNxt,
		Flags: flags, Payload: seg.payload,
	})
}

// resendFrom retransmits every unacknowledged segment at or after seq,
// re-split to the (shrunken) path MTU.
func (c *TCPConn) resendFrom(seq uint32) {
	mss := c.h.tcpMaxPayload(c.remote)
	if mss < 64 {
		mss = 64
	}
	var rebuilt []tcpSegment
	for _, seg := range c.unacked {
		if seg.seq < seq {
			rebuilt = append(rebuilt, seg)
			continue
		}
		if seg.fin {
			rebuilt = append(rebuilt, seg)
			_ = c.transmitData(seg)
			continue
		}
		data := seg.payload
		at := seg.seq
		for len(data) > 0 {
			n := len(data)
			if n > mss {
				n = mss
			}
			sub := tcpSegment{seq: at, payload: data[:n:n]}
			rebuilt = append(rebuilt, sub)
			_ = c.transmitData(sub)
			at += uint32(n)
			data = data[n:]
		}
	}
	c.unacked = rebuilt
}

// pruneAcked drops fully acknowledged segments.
func (c *TCPConn) pruneAcked(ack uint32) {
	kept := c.unacked[:0]
	for _, seg := range c.unacked {
		if seg.seq+seg.seqLen() > ack {
			kept = append(kept, seg)
		}
	}
	c.unacked = kept
}

// Close sends FIN; the connection is half-closed afterwards. The FIN is
// tracked like data so PTB-triggered retransmission replays it in order.
func (c *TCPConn) Close() error {
	if c.state == tcpClosed {
		return nil
	}
	seg := tcpSegment{seq: c.sndNxt, fin: true}
	c.unacked = append(c.unacked, seg)
	c.sndNxt++
	c.state = tcpClosed
	err := c.transmitData(seg)
	c.h.reapConn(c)
	return err
}

// reapConn drops a fully finished connection from the table so
// long-running hosts do not accumulate dead state. The TCPConn itself
// stays usable by its owner (buffers intact).
func (h *Host) reapConn(c *TCPConn) {
	if c.state == tcpClosed && c.remoteClosed {
		delete(h.tcpConns, tcpKey{remote: c.remote, remotePort: c.remotePort, localPort: c.localPort})
	}
}

// transmit encodes the segment into the host's send scratch, wraps it
// in the right IP version and routes it.
func (c *TCPConn) transmit(seg *packet.TCP) error {
	if c.remote.Is4() {
		c.h.trackCLATPort(packet.ProtoTCP, c.localPort)
	}
	return c.h.sendTCP(c.local, c.remote, seg)
}

// sendTCP encodes seg from src to dst into the send scratch and routes
// it.
func (h *Host) sendTCP(src, dst netip.Addr, seg *packet.TCP) error {
	h.l4Scratch = seg.AppendTo(h.l4Scratch[:0], src, dst)
	if dst.Is4() {
		return h.SendIPv4(&packet.IPv4{Protocol: packet.ProtoTCP, TTL: 64, Src: src, Dst: dst, Payload: h.l4Scratch})
	}
	return h.SendIPv6(&packet.IPv6{NextHeader: packet.ProtoTCP, HopLimit: 64, Src: src, Dst: dst, Payload: h.l4Scratch})
}

// ListenTCP registers an accept callback for inbound connections on port.
// The callback fires once the handshake completes.
func (h *Host) ListenTCP(port uint16, accept func(*TCPConn)) { h.listens[port] = accept }

// DialTCP opens a connection and drives the network until the handshake
// finishes (or the peer refuses / the timeout lapses).
func (h *Host) DialTCP(dst netip.Addr, port uint16, timeout time.Duration) (*TCPConn, error) {
	src, ok := h.srcFor(dst)
	if !ok {
		return nil, ErrUnreachable
	}
	if dst.Is4() && h.clat != nil && !h.v4Addr.IsValid() {
		src = clat.HostV4
	}
	h.tcpNext++
	lport := h.tcpNext
	c := &TCPConn{
		h: h, local: src, remote: dst, localPort: lport, remotePort: port,
		state: tcpSynSent, sndNxt: 1000,
	}
	h.tcpConns[tcpKey{remote: dst, remotePort: port, localPort: lport}] = c
	syn := &packet.TCP{SrcPort: lport, DstPort: port, Seq: c.sndNxt, Flags: packet.TCPSyn}
	c.sndNxt++
	if err := c.transmit(syn); err != nil {
		return nil, err
	}
	ok = h.Net.RunUntil(func() bool { return c.state == tcpEstablished || c.refused }, timeout)
	if c.refused {
		return nil, ErrUnreachable
	}
	if !ok {
		return nil, ErrTimeout
	}
	return c, nil
}

// handleTCP processes one inbound segment (already checksum-verified).
// src is the peer as seen on the wire; the CLAT path rewrites it before
// this point so connection keys always match what the app dialed.
func (h *Host) handleTCP(src, dst netip.Addr, tc *packet.TCP) {
	key := tcpKey{remote: src, remotePort: tc.SrcPort, localPort: tc.DstPort}
	c, exists := h.tcpConns[key]

	if !exists {
		if tc.HasFlags(packet.TCPSyn) && !tc.HasFlags(packet.TCPAck) {
			if accept, listening := h.listens[tc.DstPort]; listening {
				c = &TCPConn{
					h: h, local: dst, remote: src,
					localPort: tc.DstPort, remotePort: tc.SrcPort,
					state: tcpSynReceived, sndNxt: 2000, rcvNxt: tc.Seq + 1,
				}
				h.tcpConns[key] = c
				synack := &packet.TCP{
					SrcPort: c.localPort, DstPort: c.remotePort,
					Seq: c.sndNxt, Ack: c.rcvNxt, Flags: packet.TCPSyn | packet.TCPAck,
				}
				c.sndNxt++
				_ = c.transmit(synack)
				// Stash the accept callback to fire on the final ACK.
				c.OnData = nil
				h.pendingAccept(key, accept)
				return
			}
			// Refused: answer RST.
			rst := &packet.TCP{SrcPort: tc.DstPort, DstPort: tc.SrcPort, Seq: 0, Ack: tc.Seq + 1, Flags: packet.TCPRst | packet.TCPAck}
			_ = h.sendTCP(dst, src, rst)
		}
		return
	}

	if tc.HasFlags(packet.TCPRst) {
		c.refused = true
		c.state = tcpClosed
		return
	}

	switch c.state {
	case tcpSynSent:
		if tc.HasFlags(packet.TCPSyn | packet.TCPAck) {
			c.rcvNxt = tc.Seq + 1
			c.state = tcpEstablished
			ack := &packet.TCP{SrcPort: c.localPort, DstPort: c.remotePort, Seq: c.sndNxt, Ack: c.rcvNxt, Flags: packet.TCPAck}
			_ = c.transmit(ack)
		}
	case tcpSynReceived:
		if tc.HasFlags(packet.TCPAck) && !tc.HasFlags(packet.TCPSyn) {
			c.state = tcpEstablished
			if cb, ok := h.accepts[key]; ok {
				delete(h.accepts, key)
				cb(c)
			}
			// The handshake ACK may carry data (not generated by this stack,
			// but handle it anyway).
			h.tcpData(c, tc)
		}
	case tcpEstablished:
		h.tcpData(c, tc)
	case tcpClosed:
		// Half-closed: we sent our FIN but the peer may still be sending
		// data and its own FIN — process it so the connection finishes
		// and is reaped.
		h.tcpData(c, tc)
	}
}

// tcpData appends in-order payload and processes FIN.
func (h *Host) tcpData(c *TCPConn, tc *packet.TCP) {
	if tc.HasFlags(packet.TCPAck) {
		c.pruneAcked(tc.Ack)
	}
	if len(tc.Payload) > 0 && tc.Seq == c.rcvNxt {
		c.rcvNxt += uint32(len(tc.Payload))
		c.recvBuf = append(c.recvBuf, tc.Payload...)
		if c.OnData != nil {
			c.OnData(c)
		}
	}
	// Only an in-order FIN counts; out-of-order FINs (a dropped segment
	// still in flight after a Packet Too Big) are ignored and the peer's
	// retransmission delivers them later.
	if tc.Flags&packet.TCPFin != 0 && !c.remoteClosed {
		finSeq := tc.Seq + uint32(len(tc.Payload))
		if finSeq == c.rcvNxt {
			c.rcvNxt++
			c.remoteClosed = true
			if c.OnData != nil {
				c.OnData(c)
			}
			h.reapConn(c)
		}
	}
}

// pendingAccept records the accept callback for a half-open connection.
func (h *Host) pendingAccept(key tcpKey, cb func(*TCPConn)) {
	if h.accepts == nil {
		h.accepts = make(map[tcpKey]func(*TCPConn))
	}
	h.accepts[key] = cb
}
