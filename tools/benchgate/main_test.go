package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSnapshot writes a BENCH_N.json-shaped snapshot into dir and
// returns its path.
func writeSnapshot(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// gateRun runs the gate over input against the snapshots and returns
// its output and error.
func gateRun(t *testing.T, input string, snapshots ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(snapshots, strings.NewReader(input), &out)
	return out.String(), err
}

func TestLoadSnapshotsMergesLaterOverEarlier(t *testing.T) {
	dir := t.TempDir()
	first := writeSnapshot(t, dir, "BENCH_1.json", `{"benchmarks": {
		"BenchmarkA": {"before": {"ns_op": 900, "allocs_op": 50}, "after": {"ns_op": 500, "allocs_op": 40, "bytes_op": 7}},
		"BenchmarkB": {"before": {"allocs_op": 3}, "after": null},
		"BenchmarkC": {"before": null, "after": null}
	}}`)
	second := writeSnapshot(t, dir, "BENCH_2.json", `{"benchmarks": {
		"BenchmarkA": {"after": {"allocs_op": 30, "bytes_client": 10.5}}
	}}`)
	want, err := loadSnapshots([]string{first, second})
	if err != nil {
		t.Fatal(err)
	}
	// A's ns/op survives from the first file, allocs/op comes from the
	// second, bytes/client is new; B falls back to its before record;
	// C records nothing and is not gated.
	if got := want["BenchmarkA"]; len(got) != 3 || got["ns/op"] != 500 || got["allocs/op"] != 30 || got["bytes/client"] != 10.5 {
		t.Errorf("BenchmarkA limits = %v", got)
	}
	if got := want["BenchmarkB"]; len(got) != 1 || got["allocs/op"] != 3 {
		t.Errorf("BenchmarkB limits = %v", got)
	}
	if _, ok := want["BenchmarkC"]; ok {
		t.Error("BenchmarkC gated without a recorded metric")
	}
	// Reversed order: the earlier file's allocs/op wins.
	want, err = loadSnapshots([]string{second, first})
	if err != nil {
		t.Fatal(err)
	}
	if got := want["BenchmarkA"]["allocs/op"]; got != 40 {
		t.Errorf("reversed merge: allocs/op limit %v, want 40", got)
	}
}

func TestLoadSnapshotsRejectsEmpty(t *testing.T) {
	path := writeSnapshot(t, t.TempDir(), "BENCH_X.json", `{"benchmarks": {}}`)
	if _, err := loadSnapshots([]string{path}); err == nil {
		t.Error("a snapshot with nothing gateable was accepted")
	}
}

// TestGateParsesBenchLines covers the go test -bench line shapes: the
// GOMAXPROCS suffix, custom metrics between the standard ones, and a
// sub-benchmark whose own name ends in digits.
func TestGateParsesBenchLines(t *testing.T) {
	snap := writeSnapshot(t, t.TempDir(), "BENCH_1.json", `{"benchmarks": {
		"BenchmarkHeavyTraffic/flows-rings": {"after": {"ns_op": 1000000, "allocs_op": 46638}},
		"BenchmarkBroadcastDomain/clients-250": {"after": {"allocs_op": 0}},
		"BenchmarkFabricScale/million-clients": {"after": {"bytes_client": 10.23}}
	}}`)
	input := strings.Join([]string{
		"goos: linux",
		"BenchmarkHeavyTraffic/flows-rings-2  10  1500000 ns/op  240.0 flows/op  9600 flows/min  5880000 B/op  46700 allocs/op",
		"BenchmarkBroadcastDomain/clients-250  100000  950 ns/op  0 B/op  0 allocs/op",
		"BenchmarkFabricScale/million-clients-2  1  2000000000 ns/op  10.50 bytes/client  33000000 B/op  17300 allocs/op",
		"PASS",
	}, "\n")
	out, err := gateRun(t, input, snap)
	if err != nil {
		t.Fatalf("gate failed on passing input: %v\n%s", err, out)
	}
	for _, want := range []string{
		"ok   BenchmarkHeavyTraffic/flows-rings: 1500000.00 ns/op",
		"ok   BenchmarkHeavyTraffic/flows-rings: 46700.00 allocs/op",
		"ok   BenchmarkBroadcastDomain/clients-250: 0.00 allocs/op",
		"ok   BenchmarkFabricScale/million-clients: 10.50 bytes/client",
		"goos: linux", // input passes through
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestGateSlack pins each metric's slack at its edge: allocs/op and
// bytes/client at 10%, ns/op at 2.5x, and a 0 baseline strictly.
func TestGateSlack(t *testing.T) {
	snap := writeSnapshot(t, t.TempDir(), "BENCH_1.json", `{"benchmarks": {
		"BenchmarkAllocs": {"after": {"allocs_op": 100}},
		"BenchmarkBytes": {"after": {"bytes_client": 20}},
		"BenchmarkTime": {"after": {"ns_op": 1000}},
		"BenchmarkZero": {"after": {"allocs_op": 0}}
	}}`)
	for _, c := range []struct {
		name, line string
		pass       bool
	}{
		{"allocs at limit", "BenchmarkAllocs 10 5 ns/op 110 allocs/op", true},
		{"allocs past limit", "BenchmarkAllocs 10 5 ns/op 111 allocs/op", false},
		{"bytes/client at limit", "BenchmarkBytes 1 5 ns/op 22 bytes/client", true},
		{"bytes/client past limit", "BenchmarkBytes 1 5 ns/op 22.1 bytes/client", false},
		{"ns/op at limit", "BenchmarkTime 10 2500 ns/op", true},
		{"ns/op past limit", "BenchmarkTime 10 2501 ns/op", false},
		{"zero baseline held", "BenchmarkZero 10 5 ns/op 0 allocs/op", true},
		{"zero baseline broken", "BenchmarkZero 10 5 ns/op 1 allocs/op", false},
	} {
		// The other three benchmarks are fed passing lines so only the
		// case under test can fail.
		lines := map[string]string{
			"BenchmarkAllocs": "BenchmarkAllocs 10 5 ns/op 100 allocs/op",
			"BenchmarkBytes":  "BenchmarkBytes 1 5 ns/op 20 bytes/client",
			"BenchmarkTime":   "BenchmarkTime 10 1000 ns/op",
			"BenchmarkZero":   "BenchmarkZero 10 5 ns/op 0 allocs/op",
		}
		lines[strings.Fields(c.line)[0]] = c.line
		input := strings.Join([]string{lines["BenchmarkAllocs"], lines["BenchmarkBytes"], lines["BenchmarkTime"], lines["BenchmarkZero"]}, "\n")
		out, err := gateRun(t, input, snap)
		if c.pass && err != nil {
			t.Errorf("%s: failed: %v\n%s", c.name, err, out)
		}
		if !c.pass && !errors.Is(err, errGate) {
			t.Errorf("%s: passed (err %v)\n%s", c.name, err, out)
		}
	}
}

// TestGateDisarmGuards: a snapshot benchmark missing from the input,
// and a recorded metric missing from its line, both fail the gate.
func TestGateDisarmGuards(t *testing.T) {
	snap := writeSnapshot(t, t.TempDir(), "BENCH_1.json", `{"benchmarks": {
		"BenchmarkKept": {"after": {"allocs_op": 10}},
		"BenchmarkRenamed": {"after": {"allocs_op": 10}},
		"BenchmarkMetric": {"after": {"allocs_op": 10, "bytes_client": 5}}
	}}`)
	input := strings.Join([]string{
		"BenchmarkKept 10 5 ns/op 10 allocs/op",
		"BenchmarkRenamedNow 10 5 ns/op 10 allocs/op",
		"BenchmarkMetric 10 5 ns/op 10 allocs/op",
	}, "\n")
	out, err := gateRun(t, input, snap)
	if !errors.Is(err, errGate) {
		t.Fatalf("gate passed with a missing benchmark and a missing metric (err %v)\n%s", err, out)
	}
	for _, want := range []string{
		"FAIL BenchmarkRenamed: allocs/op recorded in snapshot but absent",
		"FAIL BenchmarkMetric: bytes/client recorded in snapshot but absent",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL BenchmarkKept") {
		t.Errorf("a benchmark within its limit failed:\n%s", out)
	}
}

func TestRunUsageAndInputErrors(t *testing.T) {
	if _, err := gateRun(t, ""); err == nil || errors.Is(err, errGate) {
		t.Errorf("no snapshot argument: err %v, want a usage error", err)
	}
	if _, err := gateRun(t, "", filepath.Join(t.TempDir(), "missing.json")); err == nil || errors.Is(err, errGate) {
		t.Errorf("missing snapshot: err %v, want an input error", err)
	}
	bad := writeSnapshot(t, t.TempDir(), "BENCH_bad.json", `{"benchmarks": `)
	if _, err := gateRun(t, "", bad); err == nil || errors.Is(err, errGate) {
		t.Errorf("malformed snapshot: err %v, want an input error", err)
	}
}
