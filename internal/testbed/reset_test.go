package testbed

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/profiles"
	"repro/internal/trace"
)

// resetTraceLines runs the reference workload on tb — four
// representative profiles brought up and browsed — and returns the
// full frame-level trace: every frame crossing the managed switch with
// its ingress port, each client's event log, and the browse outcomes.
// The filter is installed fresh per call; a checkpointed world's Reset
// truncates the filter list back to its snapshot, so each cycle traces
// with exactly one filter.
func resetTraceLines(t *testing.T, tb *Testbed) []string {
	t.Helper()
	var lines []string
	tb.Switch.AddFilter(func(port int, f netsim.Frame) bool {
		lines = append(lines, fmt.Sprintf("p%02d %s", port, trace.Summarize(f)))
		return true
	})
	for _, b := range []hoststack.Behavior{
		profiles.IOS(), profiles.Windows10(), profiles.WindowsXP(), profiles.Android(),
	} {
		c := tb.AddClient("reset-"+b.Name, b)
		r, err := httpsim.Browse(c, "http://sc24.supercomputing.org/")
		if err != nil {
			lines = append(lines, fmt.Sprintf("%s browse error %v", c.Name(), err))
		} else {
			lines = append(lines, fmt.Sprintf("%s status=%d used=%v body=%d",
				c.Name(), r.Response.Status, r.UsedAddr, len(r.Response.Body)))
		}
		lines = append(lines, c.Events()...)
	}
	return lines
}

func traceDigest(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// TestResetGoldenTraceMatchesFreshBuild is the frame-level witness for
// the Checkpoint/Reset lifecycle: a world that runs the reference
// workload, Resets, and runs it again must emit the byte-identical
// frame trace a fresh-build world emits — MAC allocation, DHCP XIDs,
// DNS IDs, RA beacon phase, lease pool cursors and switch learning all
// rewound exactly to the post-Build state.
func TestResetGoldenTraceMatchesFreshBuild(t *testing.T) {
	fresh, err := Build(DefaultTopology(DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	want := traceDigest(resetTraceLines(t, fresh))
	fresh.Close()

	tb, err := Build(DefaultTopology(DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if err := tb.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for cycle := 1; cycle <= 3; cycle++ {
		lines := resetTraceLines(t, tb)
		if got := traceDigest(lines); got != want {
			t.Fatalf("cycle %d: trace digest %s != fresh-build %s (%d lines; first:\n%s)",
				cycle, got, want, len(lines), strings.Join(lines[:min(8, len(lines))], "\n"))
		}
		if err := tb.Reset(); err != nil {
			t.Fatalf("cycle %d Reset: %v", cycle, err)
		}
	}
}

// TestCheckpointRefusesBuiltClients pins the lifecycle guard: a world
// that already materialized clients cannot checkpoint (their DHCP
// timers are not reconstructible), and Reset without a checkpoint is an
// error rather than a silent no-op.
func TestCheckpointRefusesBuiltClients(t *testing.T) {
	tb := New(DefaultOptions())
	defer tb.Close()
	if err := tb.Reset(); err != ErrNoCheckpoint {
		t.Errorf("Reset without checkpoint: err=%v, want ErrNoCheckpoint", err)
	}
	tb.AddClient("early", profiles.IOS())
	if err := tb.Checkpoint(); err != ErrClientsBuilt {
		t.Errorf("Checkpoint with built clients: err=%v, want ErrClientsBuilt", err)
	}
}

// TestResetClearsClients pins that Reset discards the client roster and
// a re-added client reproduces the first checkout's identity (same MAC
// allocation stream, same lease).
func TestResetClearsClients(t *testing.T) {
	tb, err := Build(DefaultTopology(DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c1 := tb.AddClient("probe", profiles.Windows10())
	v4a := c1.IPv4Addr()
	if err := tb.Reset(); err != nil {
		t.Fatal(err)
	}
	if len(tb.Clients) != 0 {
		t.Fatalf("Reset left %d clients", len(tb.Clients))
	}
	c2 := tb.AddClient("probe", profiles.Windows10())
	if got := c2.IPv4Addr(); got != v4a {
		t.Errorf("re-added client leased %v, first checkout leased %v", got, v4a)
	}
}

// TestResetReleasesClients pins that Reset lets go of the finished
// run's hosts. A finalizer cannot observe that (Host → NIC → Host is a
// cycle), so the test measures the live heap instead: what a run of
// 100 clients leaves behind after Reset must be the world's warmed
// capacity, well under what retaining every Host costs.
func TestResetReleasesClients(t *testing.T) {
	const n = 100
	tb, err := Build(ScaleTopology(DefaultOptions(), 2*n))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	all := profiles.All()
	before := liveHeap()
	for i := 0; i < n; i++ {
		tb.AddClient(fmt.Sprintf("rel-%03d", i), all[i%len(all)])
	}
	if err := tb.Reset(); err != nil {
		t.Fatal(err)
	}
	if per := (liveHeap() - before) / n; per > 4096 {
		t.Errorf("each finished client still holds %d B of heap after Reset, want under 4 KiB", per)
	}
}
