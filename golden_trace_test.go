package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/profiles"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// flatGoldenDigest is the SHA-256 of the flat-world reference trace:
// every frame crossing the managed switch (tcpdump-style summaries plus
// ingress port), each client's event log, and the browse outcomes, for
// a default world bringing up four representative profiles. It was
// recorded before the fabric refactor landed; the fabric code paths
// (trunk scoping, domain lease pools, scoped RAs, host parking) are all
// gated behind FabricSpec, so a flat world must keep reproducing this
// byte stream forever. If this test fails, a change leaked into the
// fabric-off path.
const flatGoldenDigest = "3e9a1e0d98bdf13c3f780fbadce246693b2ebe39ace9912cdeb55a670332c2a1"

// flatTraceLines runs the reference flat-world workload and returns the
// trace the digest is computed over.
func flatTraceLines(t *testing.T) []string {
	tb, err := testbed.Build(testbed.DefaultTopology(testbed.DefaultOptions()))
	if err != nil {
		t.Fatalf("building flat world: %v", err)
	}
	defer tb.Close()

	var lines []string
	tb.Switch.AddFilter(func(port int, f netsim.Frame) bool {
		lines = append(lines, fmt.Sprintf("p%02d %s", port, trace.Summarize(f)))
		return true
	})

	for _, b := range []hoststack.Behavior{
		profiles.IOS(), profiles.Windows10(), profiles.WindowsXP(), profiles.Android(),
	} {
		c := tb.AddClient("golden-"+b.Name, b)
		r, err := httpsim.Browse(c, "http://sc24.supercomputing.org/")
		if err != nil {
			lines = append(lines, fmt.Sprintf("%s browse error", c.Name()))
		} else {
			lines = append(lines, fmt.Sprintf("%s status=%d used=%v body=%d",
				c.Name(), r.Response.Status, r.UsedAddr, len(r.Response.Body)))
		}
		lines = append(lines, c.Events()...)
	}
	return lines
}

// TestFlatWorldGoldenTrace pins the fabric-off world to the
// pre-refactor byte stream: the refactor's acceptance criteria require
// flat worlds to remain bit-identical, and a digest over every switch
// frame plus every client event is the strictest practical witness.
func TestFlatWorldGoldenTrace(t *testing.T) {
	lines := flatTraceLines(t)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	got := hex.EncodeToString(sum[:])
	if got != flatGoldenDigest {
		t.Errorf("flat-world trace diverged from the pre-refactor golden digest:\n got %s\nwant %s\n(%d trace lines; first lines:\n%s)",
			got, flatGoldenDigest, len(lines), strings.Join(lines[:min(12, len(lines))], "\n"))
	}
}
