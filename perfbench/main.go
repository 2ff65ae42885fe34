// Command perfbench is the lab's end-to-end benchmark. It runs one
// workload (million, grid or traffic) as a closed loop for a fixed host
// time, checks every run's simulated output against a digest, and ends
// its standard output with one JSON object: the end-to-end metrics, or
// with -trace 1 the per-layer metrics of a separate traced phase.
//
//	bash perfbench/run.sh --workload grid --seed 1 --seconds 10 --trace 0
//
// README.md in this directory describes the workloads, the metrics and
// the layer map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: million, grid or traffic")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds of the timed phase")
	trace := fs.Int("trace", 0, "1: measure per-layer metrics in a traced phase")
	out := fs.String("out", ".bench_build/perfbench", "directory for the traced phase's CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newWorkload, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want million, grid or traffic)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		timed:    time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		out:      *out,
	}
	res, err := execute(newWorkload(*seed), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, cfg, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one named value of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the environment stamp, the human-readable summaries and
// the result object, in that order.
func report(w io.Writer, cfg config, res *outcome) error {
	bw := bufio.NewWriter(w)
	env, err := json.Marshal(environment(cfg))
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "env %s\n", env)
	fmt.Fprintf(bw, "digest %016x\n", res.digest)
	fmt.Fprintf(bw, "e2e %s\n", res.e2e.summary())
	metrics := res.e2e.metrics()
	attempted, failed := res.e2e.calls, res.e2e.failed
	if cfg.trace {
		fmt.Fprintf(bw, "e2e-traced %s\n", res.traced.summary())
		fmt.Fprintf(bw, "trace-overhead %s\n", overhead(res.e2e, res.traced))
		metrics = res.layers
		attempted += res.traced.calls
		failed += res.traced.failed
		for _, name := range sortedKeys(metrics) {
			fmt.Fprintf(bw, "layer %s=%.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
		}
	}
	line, err := json.Marshal(result{
		Correct:   res.correct && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

// environment is the stamp a BENCH ledger cites next to the figures.
func environment(cfg config) map[string]any {
	return map[string]any{
		"go":         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.timed.Seconds(),
		"trace":      cfg.trace,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// the file is missing).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
