// Package trace renders simulated frames as one-line, tcpdump-style
// summaries and provides a switch tap that records them. It exists for
// operability: `testbedsim -pcap` shows exactly what crossed the access
// switch, which is how the paper's authors debugged their testbed (RA
// captures, DHCP races, poisoned answers).
package trace

import (
	"fmt"
	"strings"

	"repro/internal/dhcp4"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Summarize renders one frame as a single line.
func Summarize(f netsim.Frame) string {
	switch f.EtherType {
	case netsim.EtherTypeARP:
		return summarizeARP(f.Payload)
	case netsim.EtherTypeIPv4:
		return summarizeIPv4(f.Payload)
	case netsim.EtherTypeIPv6:
		return summarizeIPv6(f.Payload)
	default:
		return fmt.Sprintf("ethertype %#04x (%d bytes)", f.EtherType, len(f.Payload))
	}
}

func summarizeARP(b []byte) string {
	var a packet.ARP
	if a.Decode(b) != nil {
		return "ARP <malformed>"
	}
	if a.Op == packet.ARPRequest {
		return fmt.Sprintf("ARP who-has %v tell %v", a.TargetIP, a.SenderIP)
	}
	return fmt.Sprintf("ARP %v is-at %02x:%02x:%02x:%02x:%02x:%02x",
		a.SenderIP, a.SenderMAC[0], a.SenderMAC[1], a.SenderMAC[2], a.SenderMAC[3], a.SenderMAC[4], a.SenderMAC[5])
}

func summarizeIPv4(b []byte) string {
	var p packet.IPv4
	if p.Decode(b) != nil {
		return "IPv4 <malformed>"
	}
	head := fmt.Sprintf("IPv4 %v > %v", p.Src, p.Dst)
	switch p.Protocol {
	case packet.ProtoUDP:
		return head + " " + summarizeUDP(p.Payload, p.Src, p.Dst)
	case packet.ProtoTCP:
		return head + " " + summarizeTCPBytes(p.Payload)
	case packet.ProtoICMP:
		var ic packet.ICMP
		if ic.DecodeV4(p.Payload) != nil {
			return head + " ICMP <malformed>"
		}
		return head + " " + icmpV4Name(ic.Type, ic.Code)
	default:
		return fmt.Sprintf("%s proto %d", head, p.Protocol)
	}
}

func summarizeIPv6(b []byte) string {
	var p packet.IPv6
	if p.Decode(b) != nil {
		return "IPv6 <malformed>"
	}
	head := fmt.Sprintf("IPv6 %v > %v", p.Src, p.Dst)
	switch p.NextHeader {
	case packet.ProtoUDP:
		return head + " " + summarizeUDP(p.Payload, p.Src, p.Dst)
	case packet.ProtoTCP:
		return head + " " + summarizeTCPBytes(p.Payload)
	case packet.ProtoICMPv6:
		if len(p.Payload) == 0 {
			return head + " ICMPv6 <empty>"
		}
		return head + " " + icmpV6Name(p.Payload[0], func() uint8 {
			if len(p.Payload) > 1 {
				return p.Payload[1]
			}
			return 0
		}())
	default:
		return fmt.Sprintf("%s next-header %d", head, p.NextHeader)
	}
}

// summarizeUDP decodes well-known payloads (DNS, DHCP) for readability.
func summarizeUDP(b []byte, src, dst interface{ String() string }) string {
	if len(b) < packet.UDPHeaderLen {
		return "UDP <malformed>"
	}
	sp := uint16(b[0])<<8 | uint16(b[1])
	dp := uint16(b[2])<<8 | uint16(b[3])
	head := fmt.Sprintf("UDP %d > %d", sp, dp)
	payload := b[packet.UDPHeaderLen:]
	switch {
	case sp == 53 || dp == 53:
		if m, err := dnswire.Parse(payload); err == nil {
			return head + " " + summarizeDNS(m)
		}
	case sp == dhcp4.ServerPort || dp == dhcp4.ServerPort || sp == dhcp4.ClientPort || dp == dhcp4.ClientPort:
		if m, err := dhcp4.Parse(payload); err == nil {
			return head + " " + summarizeDHCP(m)
		}
	}
	return fmt.Sprintf("%s (%d bytes)", head, len(payload))
}

func summarizeDNS(m *dnswire.Message) string {
	var sb strings.Builder
	if m.Response {
		fmt.Fprintf(&sb, "DNS response %s", dnswire.RcodeString(m.Rcode))
		for i, rr := range m.Answers {
			if i == 3 {
				fmt.Fprintf(&sb, " …+%d", len(m.Answers)-3)
				break
			}
			switch rr.Type {
			case dnswire.TypeA, dnswire.TypeAAAA:
				fmt.Fprintf(&sb, " %s=%v", dnswire.TypeString(rr.Type), rr.Addr)
			case dnswire.TypeCNAME, dnswire.TypePTR:
				fmt.Fprintf(&sb, " %s=%s", dnswire.TypeString(rr.Type), rr.Target)
			}
		}
	} else {
		sb.WriteString("DNS query")
	}
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, " %s %s", q.Name, dnswire.TypeString(q.Type))
	}
	return sb.String()
}

func summarizeDHCP(m *dhcp4.Message) string {
	names := map[uint8]string{
		dhcp4.Discover: "DISCOVER", dhcp4.Offer: "OFFER", dhcp4.Request: "REQUEST",
		dhcp4.ACK: "ACK", dhcp4.NAK: "NAK", dhcp4.Release: "RELEASE", dhcp4.Inform: "INFORM",
	}
	name, ok := names[m.Type()]
	if !ok {
		name = fmt.Sprintf("type %d", m.Type())
	}
	s := "DHCP " + name
	if m.YIAddr.IsValid() && m.YIAddr.Is4() && m.YIAddr.String() != "0.0.0.0" {
		s += " yiaddr " + m.YIAddr.String()
	}
	if secs, has := m.IPv6OnlyPreferred(); has {
		s += fmt.Sprintf(" option108=%ds", secs)
	}
	return s
}

func icmpV4Name(typ, code uint8) string {
	switch typ {
	case packet.ICMPv4Echo:
		return "ICMP echo request"
	case packet.ICMPv4EchoReply:
		return "ICMP echo reply"
	case packet.ICMPv4DestUnreachable:
		return fmt.Sprintf("ICMP unreachable (code %d)", code)
	case packet.ICMPv4TimeExceeded:
		return "ICMP time exceeded"
	default:
		return fmt.Sprintf("ICMP type %d code %d", typ, code)
	}
}

func icmpV6Name(typ, code uint8) string {
	switch typ {
	case packet.ICMPv6RouterSolicit:
		return "ICMPv6 router solicitation"
	case packet.ICMPv6RouterAdvert:
		return "ICMPv6 router advertisement"
	case packet.ICMPv6NeighborSolicit:
		return "ICMPv6 neighbor solicitation"
	case packet.ICMPv6NeighborAdvert:
		return "ICMPv6 neighbor advertisement"
	case packet.ICMPv6EchoRequest:
		return "ICMPv6 echo request"
	case packet.ICMPv6EchoReply:
		return "ICMPv6 echo reply"
	case packet.ICMPv6DestUnreachable:
		return fmt.Sprintf("ICMPv6 unreachable (code %d)", code)
	case packet.ICMPv6PacketTooBig:
		return "ICMPv6 packet too big"
	case packet.ICMPv6TimeExceeded:
		return "ICMPv6 time exceeded"
	default:
		return fmt.Sprintf("ICMPv6 type %d code %d", typ, code)
	}
}

func summarizeTCPBytes(b []byte) string {
	if len(b) < packet.TCPMinHeaderLen {
		return "TCP <malformed>"
	}
	sp := uint16(b[0])<<8 | uint16(b[1])
	dp := uint16(b[2])<<8 | uint16(b[3])
	flags := b[13]
	var fl []string
	for _, f := range []struct {
		bit  uint8
		name string
	}{{packet.TCPSyn, "S"}, {packet.TCPFin, "F"}, {packet.TCPRst, "R"}, {packet.TCPPsh, "P"}, {packet.TCPAck, "."}} {
		if flags&f.bit != 0 {
			fl = append(fl, f.name)
		}
	}
	hlen := int(b[12]>>4) * 4
	plen := 0
	if hlen >= packet.TCPMinHeaderLen && hlen <= len(b) {
		plen = len(b) - hlen
	}
	return fmt.Sprintf("TCP %d > %d [%s] len %d", sp, dp, strings.Join(fl, ""), plen)
}

// Tap records frame summaries crossing a switch.
type Tap struct {
	// Max bounds retained lines (0 = unlimited).
	Max   int
	Lines []string
}

// Filter returns a pass-through switch filter feeding the tap.
func (t *Tap) Filter() netsim.FrameFilter {
	return func(port int, f netsim.Frame) bool {
		if t.Max == 0 || len(t.Lines) < t.Max {
			t.Lines = append(t.Lines, fmt.Sprintf("port%d %v > %v: %s", port, f.Src, f.Dst, Summarize(f)))
		}
		return true
	}
}
