// Package dnswire implements the DNS message wire format (RFC 1035):
// header, questions, resource records with A/AAAA/CNAME/PTR/NS/SOA/TXT
// RDATA, and name compression on both encode and decode. It is the codec
// underneath every DNS component in the testbed — the healthy DNS64
// server, the poisoned resolvers, and the client-side stub resolvers.
package dnswire

import (
	"errors"
	"fmt"
	"strings"
)

// Wire-format limits from RFC 1035 §2.3.4.
const (
	MaxLabelLen = 63
	MaxNameLen  = 255
)

var (
	// ErrTruncatedMessage reports a buffer shorter than its structure claims.
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
	// ErrBadName reports an invalid domain name.
	ErrBadName = errors.New("dnswire: bad name")
	// ErrBadPointer reports a malformed or looping compression pointer.
	ErrBadPointer = errors.New("dnswire: bad compression pointer")
)

// CanonicalName lower-cases a domain name and ensures a trailing dot,
// giving the representation used for map keys throughout the DNS stack.
// Names that are already canonical — the overwhelmingly common case, as
// every resolver layer re-canonicalises the same string 3–5 times per
// query — are returned unchanged without allocating.
func CanonicalName(name string) string {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if ('A' <= c && c <= 'Z') || c >= 0x80 || asciiSpace(c) {
			return canonicalNameSlow(name)
		}
	}
	if len(name) == 0 {
		return "."
	}
	if name[len(name)-1] != '.' {
		return name + "."
	}
	return name
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

func canonicalNameSlow(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" || name == "." {
		return "."
	}
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	return name
}

// SplitLabels breaks a canonical name into its labels, excluding the root.
func SplitLabels(name string) []string {
	name = strings.TrimSuffix(CanonicalName(name), ".")
	if name == "" {
		return nil
	}
	return strings.Split(name, ".")
}

// IsSubdomain reports whether child equals parent or falls underneath it.
func IsSubdomain(child, parent string) bool {
	c, p := CanonicalName(child), CanonicalName(parent)
	if p == "." {
		return true
	}
	return c == p || strings.HasSuffix(c, "."+p)
}

// appendName encodes name at the end of msg, compressing against the
// offsets already recorded in table (suffix -> message-relative offset).
// base is where the DNS message starts inside msg, so encoding can
// append to a caller-supplied buffer. The table is updated with any
// newly encoded suffixes; its keys are substrings of the canonical name,
// so recording them never copies.
func appendName(msg []byte, base int, name string, table map[string]int) ([]byte, error) {
	name = CanonicalName(name)
	if len(name) > MaxNameLen {
		return nil, fmt.Errorf("%w: %q too long", ErrBadName, name)
	}
	if name == "." {
		return append(msg, 0), nil
	}
	for i := 0; i < len(name); {
		suffix := name[i:]
		if off, ok := table[suffix]; ok && off < 0x4000 {
			return append(msg, 0xc0|byte(off>>8), byte(off)), nil
		}
		l := strings.IndexByte(suffix, '.')
		if l <= 0 || l > MaxLabelLen {
			return nil, fmt.Errorf("%w: label %q", ErrBadName, suffix[:max(l, 0)])
		}
		if table != nil && len(msg)-base < 0x4000 {
			table[suffix] = len(msg) - base
		}
		msg = append(msg, byte(l))
		msg = append(msg, suffix[:l]...)
		i += l + 1
	}
	return append(msg, 0), nil
}

// readName decodes a possibly-compressed name starting at off in msg.
// It returns the canonical name and the offset just past the name in the
// original (uncompressed) stream. Labels are lower-cased into a
// stack-resident scratch buffer while decoding, so the whole name costs
// a single string allocation.
func readName(msg []byte, off int) (string, int, error) {
	var scratch [MaxNameLen + 1]byte
	buf := scratch[:0]
	jumped := false
	next := off
	hops := 0
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncatedMessage
		}
		b := msg[off]
		switch {
		case b == 0:
			if !jumped {
				next = off + 1
			}
			if len(buf) == 0 {
				return ".", next, nil
			}
			return string(buf), next, nil
		case b&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			ptr := int(b&0x3f)<<8 | int(msg[off+1])
			if !jumped {
				next = off + 2
				jumped = true
			}
			// Pointers only jump backwards, so they cannot loop; the hop
			// cap bounds what a forged chain of pointers to pointers
			// costs. An encoder's pointer lands on a label and a name
			// holds at most MaxNameLen/2 labels, so a well-formed name
			// never follows more pointers than that.
			if ptr >= off || hops == MaxNameLen/2 {
				return "", 0, ErrBadPointer
			}
			hops++
			off = ptr
		case b&0xc0 != 0:
			return "", 0, fmt.Errorf("%w: reserved label type %#02x", ErrBadName, b&0xc0)
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			if len(buf)+l+1 > MaxNameLen {
				return "", 0, fmt.Errorf("%w: decoded name too long", ErrBadName)
			}
			for _, c := range msg[off+1 : off+1+l] {
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				buf = append(buf, c)
			}
			buf = append(buf, '.')
			off += 1 + l
		}
	}
}
