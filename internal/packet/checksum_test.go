package packet

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// sumBytesOracle is the reference one's complement sum sumBytes must
// agree with: one 16-bit big-endian word per step, a trailing odd byte
// padded with zero.
func sumBytesOracle(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

// TestSumBytesMatchesOracle checks the eight-bytes-per-step kernel
// against the word-at-a-time oracle over random lengths 0–1600 (odd
// ones included), start offsets 0–7 into the buffer, and random running
// sums carried in from a previous call.
func TestSumBytesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	buf := make([]byte, 1600+8)
	for i := 0; i < 20000; i++ {
		for j := range buf {
			buf[j] = byte(rng.Uint32())
		}
		off, n := rng.IntN(8), rng.IntN(1601)
		data := buf[off : off+n]
		start := rng.Uint32N(1 << 17)
		if got, want := finishChecksum(sumBytes(start, data)), finishChecksum(sumBytesOracle(start, data)); got != want {
			t.Fatalf("offset %d length %d start %#x: checksum %#04x, oracle %#04x", off, n, start, got, want)
		}
	}
}

// TestSumBytesExtremes covers the all-zero and all-ones words at every
// short length and alignment, where one's complement has two zeros and
// a fold that loses a carry shows first.
func TestSumBytesExtremes(t *testing.T) {
	for _, fill := range []byte{0x00, 0xff} {
		buf := make([]byte, 72)
		for i := range buf {
			buf[i] = fill
		}
		for off := 0; off < 8; off++ {
			for n := 0; off+n <= len(buf); n++ {
				for _, start := range []uint32{0, 1, 0xffff, 0x1fffe} {
					data := buf[off : off+n]
					if got, want := finishChecksum(sumBytes(start, data)), finishChecksum(sumBytesOracle(start, data)); got != want {
						t.Fatalf("fill %#02x offset %d length %d start %#x: checksum %#04x, oracle %#04x",
							fill, off, n, start, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkChecksum is the codec's checksum kernel at a DNS-sized and
// an MTU-sized message.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{120, 1400} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 7)
		}
		b.Run(fmt.Sprintf("bytes-%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				_ = Checksum(data)
			}
		})
	}
}
