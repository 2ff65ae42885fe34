package hoststack

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"repro/internal/ndp"
)

// The host event journal. Every notable state change (an address
// formed, deprecated or expired, a DHCP transition, a learned prefix)
// is appended to Host.journal as one kind byte followed by its
// operands, each a tag byte and a compact value: addresses as their raw
// 4 or 16 bytes, integers and durations as varints. The journal is a
// pointer-free []byte, so the garbage collector never scans it, and
// recording formats nothing: each address a gateway reboot deprecates
// or re-prefers costs one 18-byte event and, once the journal has
// grown, no allocation. Events renders the journal to text on demand,
// one fmt format per kind.

// eventKind names one kind of host event; it indexes eventFormats.
type eventKind uint8

const (
	evIPv4Static eventKind = iota
	evIPv6Static
	evRouter
	evDeprecatedPIO
	evRePreferred
	evSLAAC
	evPREF64
	evRDNSS
	evAddrExpired
	evDeprecatedExpired
	evTCPUnreachable
	evDHCPDiscover
	evDHCPGaveUp
	evDHCPDiscoverRetry
	evDHCPRequestAbandoned
	evDHCPRequestRetry
	evDHCPV6Only
	evDHCPRenewed
	evDHCPBound
	evDHCPNAK
	evCLATStarted
	evNAT64Prefix
	evPMTU
	numEventKinds
)

// eventFormats is the text each kind renders to: the fmt format applied
// to the event's operands in recording order.
var eventFormats = [numEventKinds]string{
	evIPv4Static:           "ipv4 static %v/%d gw %v",
	evIPv6Static:           "ipv6 static %v/%d",
	evRouter:               "default router %v (%s preference)",
	evDeprecatedPIO:        "deprecated %v (PIO preferred lifetime 0)",
	evRePreferred:          "re-preferred %v",
	evSLAAC:                "slaac %v (from RA by %v)",
	evPREF64:               "pref64 %v (RFC 8781)",
	evRDNSS:                "rdnss %v",
	evAddrExpired:          "addr %v valid lifetime expired",
	evDeprecatedExpired:    "deprecated %v (preferred lifetime expired)",
	evTCPUnreachable:       "tcp %v:%d unreachable (ICMPv6 code %d)",
	evDHCPDiscover:         "dhcp discover (xid %#x, option108=%v)",
	evDHCPGaveUp:           "dhcp gave up after %d discovers",
	evDHCPDiscoverRetry:    "dhcp discover retransmit #%d",
	evDHCPRequestAbandoned: "dhcp request abandoned after %d tries; rediscovering",
	evDHCPRequestRetry:     "dhcp request retransmit #%d",
	evDHCPV6Only:           "dhcp offer has option 108: IPv6-only for %v",
	evDHCPRenewed:          "dhcp renewed %v",
	evDHCPBound:            "dhcp bound %v gw %v dns %v domain %q",
	evDHCPNAK:              "dhcp nak; restarting",
	evCLATStarted:          "clat started (src %v, prefix %v)",
	evNAT64Prefix:          "nat64 prefix %v (RFC 7050 via ipv4only.arpa)",
	evPMTU:                 "pmtu %v = %d",
}

// eventArity is the operand count of each kind: one per verb of its
// format (none of them contains a literal %%).
var eventArity = func() (n [numEventKinds]int) {
	for k, f := range eventFormats {
		n[k] = strings.Count(f, "%")
	}
	return n
}()

// Operand tags: each operand is one tag byte, then the value it names.
const (
	opAddrInvalid byte = iota // nothing follows
	opAddr4                   // 4 address bytes
	opAddr6                   // 16 address bytes
	opPrefix                  // an address operand, then Bits()+1 as one byte
	opAddrs                   // a uvarint count, then that many address operands
	opInt                     // a zigzag varint
	opDuration                // a zigzag varint of nanoseconds
	opBool                    // one byte, 0 or 1
	opString                  // a uvarint length, then the bytes
	opPreference              // one byte holding the int8
)

// record appends one event to the journal. The operands must match the
// kind's format in number and order; their types are those the call
// sites pass (addresses, prefixes, address lists, the integer kinds,
// durations, bools, strings and router preferences).
func (h *Host) record(k eventKind, args ...any) {
	if len(args) != eventArity[k] {
		panic("hoststack: event operand count differs from its format")
	}
	b := append(h.journal, byte(k))
	for _, a := range args {
		b = appendOperand(b, a)
	}
	h.journal = b
}

// appendOperand encodes one operand. The unsupported-type panic names
// no type: formatting the operand there would make every boxed operand
// escape to the heap.
func appendOperand(b []byte, v any) []byte {
	switch v := v.(type) {
	case netip.Addr:
		return appendAddr(b, v)
	case netip.Prefix:
		return append(appendAddr(append(b, opPrefix), v.Addr()), byte(v.Bits()+1))
	case []netip.Addr:
		b = binary.AppendUvarint(append(b, opAddrs), uint64(len(v)))
		for _, a := range v {
			b = appendAddr(b, a)
		}
		return b
	case int:
		return binary.AppendVarint(append(b, opInt), int64(v))
	case uint8:
		return binary.AppendVarint(append(b, opInt), int64(v))
	case uint16:
		return binary.AppendVarint(append(b, opInt), int64(v))
	case uint32:
		return binary.AppendVarint(append(b, opInt), int64(v))
	case time.Duration:
		return binary.AppendVarint(append(b, opDuration), int64(v))
	case bool:
		if v {
			return append(b, opBool, 1)
		}
		return append(b, opBool, 0)
	case string:
		return append(binary.AppendUvarint(append(b, opString), uint64(len(v))), v...)
	case ndp.RouterPreference:
		return append(b, opPreference, byte(v))
	}
	panic("hoststack: unsupported event operand type")
}

// appendAddr encodes an address operand. Host addresses carry no IPv6
// zone, so none is recorded.
func appendAddr(b []byte, a netip.Addr) []byte {
	switch {
	case a.Is4():
		a4 := a.As4()
		return append(append(b, opAddr4), a4[:]...)
	case a.Is6():
		a16 := a.As16()
		return append(append(b, opAddr6), a16[:]...)
	}
	return append(b, opAddrInvalid)
}

// Events renders the host's event journal, one line per event in the
// order they happened. Each call decodes the whole journal and formats
// every line afresh; nothing on the simulation path calls it.
func (h *Host) Events() []string {
	var lines []string
	var args []any
	for b := h.journal; len(b) > 0; {
		k := eventKind(b[0])
		b = b[1:]
		args = args[:0]
		for range eventArity[k] {
			var v any
			v, b = readOperand(b)
			args = append(args, v)
		}
		lines = append(lines, fmt.Sprintf(eventFormats[k], args...))
	}
	return lines
}

// readOperand decodes one operand written by appendOperand and returns
// the rest of the journal. Integers of every width come back as int64,
// which every verb the formats use prints identically.
func readOperand(b []byte) (any, []byte) {
	switch b[0] {
	case opPrefix:
		a, rest := readAddr(b[1:])
		return netip.PrefixFrom(a, int(rest[0])-1), rest[1:]
	case opAddrs:
		n, w := binary.Uvarint(b[1:])
		b = b[1+w:]
		addrs := make([]netip.Addr, n)
		for i := range addrs {
			addrs[i], b = readAddr(b)
		}
		return addrs, b
	case opInt:
		v, w := binary.Varint(b[1:])
		return v, b[1+w:]
	case opDuration:
		v, w := binary.Varint(b[1:])
		return time.Duration(v), b[1+w:]
	case opBool:
		return b[1] != 0, b[2:]
	case opString:
		n, w := binary.Uvarint(b[1:])
		b = b[1+w:]
		return string(b[:n]), b[n:]
	case opPreference:
		return ndp.RouterPreference(int8(b[1])), b[2:]
	}
	a, rest := readAddr(b)
	return a, rest
}

func readAddr(b []byte) (netip.Addr, []byte) {
	switch b[0] {
	case opAddr4:
		return netip.AddrFrom4([4]byte(b[1:5])), b[5:]
	case opAddr6:
		return netip.AddrFrom16([16]byte(b[1:17])), b[17:]
	}
	return netip.Addr{}, b[1:]
}
