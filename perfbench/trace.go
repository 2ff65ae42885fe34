package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/testbed"
)

// This file is the traced run: spans around the benchmark's own calls
// into each layer, counters read from the worlds' public accessors, and
// a CPU profile whose self time is bucketed into layers.

// layerOf assigns every package under internal/ to one layer. The test
// enumerates the packages on disk, so a new package cannot go
// unbucketed. netsim's switch.go is the one file-level exception: its
// frames go to the switch layer (see fileLayer).
var layerOf = map[string]string{
	"clat":       "nat",
	"core":       "scenario",
	"dhcp4":      "hoststack",
	"dns":        "dns",
	"dns64":      "dns",
	"dnspoison":  "dns",
	"dnswire":    "codec",
	"gateway5g":  "nat",
	"hoststack":  "hoststack",
	"httpsim":    "hoststack",
	"inet":       "hoststack",
	"metrics":    "metrics",
	"mgmtswitch": "switch",
	"nat44":      "nat",
	"nat64":      "nat",
	"ndp":        "hoststack",
	"netsim":     "netsim",
	"packet":     "codec",
	"pathology":  "pathology",
	"portal":     "hoststack",
	"profiles":   "hoststack",
	"rfc6724":    "hoststack",
	"scenario":   "scenario",
	"testbed":    "testbed",
	"trace":      "netsim",
	"vpn":        "nat",
}

// cpuLayers are the buckets the CPU profile's self time splits into.
// runtime holds the allocator, the collector, maps and the scheduler;
// other holds this benchmark's own code and anything no layer called.
var cpuLayers = []string{
	"testbed", "scenario", "metrics", "netsim", "switch", "codec",
	"dns", "nat", "hoststack", "pathology", "runtime", "other",
}

// span collects the host durations of one kind of call, in ms.
type span struct{ samples []float64 }

func (s *span) add(d time.Duration) {
	s.samples = append(s.samples, float64(d)/float64(time.Millisecond))
}

func (s *span) mean() float64 {
	sum := 0.0
	for _, v := range s.samples {
		sum += v
	}
	return ratio(sum, float64(len(s.samples)))
}

// counterSet is one world's counters, read through public accessors.
type counterSet struct {
	frames, fanoutEvents, fanoutDeliveries uint64
	ringFrames, ringBatches, impairDrops   uint64
	flooded, suppressed                    uint64
	poisonQueries, healthyQueries          uint64
	cacheHits, cacheMisses                 uint64
	nat64Pkts, nat44Pkts, portsExhausted   uint64
	payloadsServed, allocsAvoided          uint64
	queuePeak                              int
}

func readCounters(tb *testbed.Testbed) counterSet {
	n := tb.Net.Stats()
	sw := tb.SwitchStats()
	g := tb.Gateway.TrafficStats()
	c := counterSet{
		frames:           n.FramesDelivered,
		fanoutEvents:     n.FanoutEvents,
		fanoutDeliveries: n.FanoutDeliveries,
		ringFrames:       n.UnicastRingFrames,
		ringBatches:      n.UnicastRingBatches,
		impairDrops:      n.FramesImpairLost + n.FramesImpairFlapDropped,
		flooded:          sw.Flooded,
		suppressed:       sw.SuppressedEtherType + sw.SuppressedGroup + sw.SuppressedUnicast,
		poisonQueries:    uint64(tb.PoisonLog.Len()),
		healthyQueries:   uint64(tb.HealthyLog.Len()),
		cacheHits:        tb.HealthyCache.Hits,
		cacheMisses:      tb.HealthyCache.Misses,
		nat64Pkts:        g.NAT64PktsOut + g.NAT64PktsIn,
		nat44Pkts:        g.NAT44Pkts,
		portsExhausted:   g.NAT64PortsExhausted,
		payloadsServed:   n.PayloadsServed,
		allocsAvoided:    n.AllocsAvoided,
		queuePeak:        n.QueuePeak,
	}
	if tb.Fabric != nil {
		for _, s := range tb.Fabric.Switches {
			st := s.Stats()
			c.flooded += st.Flooded
			c.suppressed += st.SuppressedEtherType + st.SuppressedGroup + st.SuppressedUnicast
		}
	}
	return c
}

// add folds the counters of s since base into c.
func (c *counterSet) add(s, base counterSet) {
	c.frames += s.frames - base.frames
	c.fanoutEvents += s.fanoutEvents - base.fanoutEvents
	c.fanoutDeliveries += s.fanoutDeliveries - base.fanoutDeliveries
	c.ringFrames += s.ringFrames - base.ringFrames
	c.ringBatches += s.ringBatches - base.ringBatches
	c.impairDrops += s.impairDrops - base.impairDrops
	c.flooded += s.flooded - base.flooded
	c.suppressed += s.suppressed - base.suppressed
	c.poisonQueries += s.poisonQueries - base.poisonQueries
	c.healthyQueries += s.healthyQueries - base.healthyQueries
	c.cacheHits += s.cacheHits - base.cacheHits
	c.cacheMisses += s.cacheMisses - base.cacheMisses
	c.nat64Pkts += s.nat64Pkts - base.nat64Pkts
	c.nat44Pkts += s.nat44Pkts - base.nat44Pkts
	c.portsExhausted += s.portsExhausted - base.portsExhausted
	c.payloadsServed += s.payloadsServed - base.payloadsServed
	c.allocsAvoided += s.allocsAvoided - base.allocsAvoided
	c.queuePeak = max(c.queuePeak, s.queuePeak)
}

// world is a world the counting pass built, with its counters at build
// time.
type world struct {
	tb   *testbed.Testbed
	base counterSet
}

// tracer records the traced set-up, the traced phase and the counting
// pass.
type tracer struct {
	inSetup  bool // traced set-up: builds also settle the heap around themselves
	counting bool // counting pass: read counters after every call

	build, checkpoint, run, firstRow, emit span
	// builtBytes and builtClients sum the settled heap the traced
	// set-up's builds added and the clients those worlds register or
	// host.
	builtBytes, builtClients int64
	builds                   int // pool misses in the traced phase

	counts        counterSet
	countedRows   int
	flowsOpened   int
	flowsAborted  int
	profile       string
	profileFile   *os.File
	runtimeBefore []rtmetrics.Sample
	runtimeAfter  []rtmetrics.Sample
}

func newTracer() *tracer { return &tracer{inSetup: true} }

// Runtime metrics the traced phase reads before and after.
var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() []rtmetrics.Sample {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	return s
}

func sampleFloat(s rtmetrics.Sample) float64 {
	switch s.Value.Kind() {
	case rtmetrics.KindFloat64:
		return s.Value.Float64()
	case rtmetrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// settledHeap is the live heap after a full collection.
func settledHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// start begins the traced phase: the CPU profile and the runtime
// baseline.
func (t *tracer) start(cfg config) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	t.profile = filepath.Join(cfg.out, fmt.Sprintf("cpu-%s-seed%d.pprof", cfg.workload, cfg.seed))
	f, err := os.Create(t.profile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.profileFile = f
	t.runtimeBefore = readRuntime()
	return nil
}

// stop ends the traced phase.
func (t *tracer) stop() error {
	t.runtimeAfter = readRuntime()
	pprof.StopCPUProfile()
	return t.profileFile.Close()
}

// afterCall records a finished Run* call of the traced phase.
func (t *tracer) afterCall(c *callState, end time.Time) {
	t.run.add(end.Sub(c.start))
	if !c.firstRow.IsZero() {
		t.firstRow.add(c.firstRow.Sub(c.start))
	}
}

// count folds one counting-pass call into the counters: worlds are the
// worlds built for that call, each of which served exactly one shard.
func (t *tracer) count(worlds []*world, rows int, rep *scenario.Report) {
	for _, w := range worlds {
		t.counts.add(readCounters(w.tb), w.base)
	}
	t.countedRows += rows
	if rep != nil && rep.Traffic != nil {
		t.flowsOpened += rep.Traffic.Flows.Opened
		t.flowsAborted += rep.Traffic.Flows.Aborted
	}
}

// layers computes the per-layer metrics from the traced phase (rec),
// the counting pass and the CPU profile.
func (t *tracer) layers(rec *recorder) (map[string]metric, error) {
	shares, err := profileShares(t.profile)
	if err != nil {
		return nil, err
	}
	perRow := func(v uint64) float64 { return ratio(float64(v), float64(t.countedRows)) }
	c := t.counts
	rt := func(i int) float64 { return sampleFloat(t.runtimeAfter[i]) - sampleFloat(t.runtimeBefore[i]) }
	m := map[string]metric{
		"testbed.build_ms":         {median(t.build.samples), "ms"},
		"testbed.checkpoint_ms":    {median(t.checkpoint.samples), "ms"},
		"testbed.builds":           {float64(t.builds), "count"},
		"testbed.bytes_per_client": {ratio(float64(t.builtBytes), float64(t.builtClients)), "B"},
		"scenario.run_ms":          {median(t.run.samples), "ms"},
		"scenario.first_row_ms":    {median(t.firstRow.samples), "ms"},
		"metrics.emit_us":          {1000 * t.emit.mean(), "us"},

		"netsim.frames_per_row":       {perRow(c.frames), "frames"},
		"netsim.fanout_width":         {ratio(float64(c.fanoutDeliveries), float64(c.fanoutEvents)), "frames"},
		"netsim.ring_share":           {ratio(float64(c.ringFrames), float64(c.frames)), "share"},
		"netsim.ring_batch":           {ratio(float64(c.ringFrames), float64(c.ringBatches)), "frames"},
		"netsim.arena_reuse":          {ratio(float64(c.allocsAvoided), float64(c.payloadsServed)), "share"},
		"netsim.queue_peak":           {float64(c.queuePeak), "events"},
		"netsim.impair_drops_per_row": {perRow(c.impairDrops), "frames"},

		"switch.flooded_per_row":  {perRow(c.flooded), "frames"},
		"switch.suppressed_share": {ratio(float64(c.suppressed), float64(c.suppressed+c.fanoutDeliveries)), "share"},

		"dns.poison_queries_per_row":  {perRow(c.poisonQueries), "queries"},
		"dns.healthy_queries_per_row": {perRow(c.healthyQueries), "queries"},
		"dns.cache_hit_ratio":         {ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)), "share"},

		"nat.nat64_pkts_per_row": {perRow(c.nat64Pkts), "pkts"},
		"nat.nat44_pkts_per_row": {perRow(c.nat44Pkts), "pkts"},
		"nat.ports_exhausted":    {float64(c.portsExhausted), "count"},

		"hoststack.flow_abort_ratio": {ratio(float64(t.flowsAborted), float64(t.flowsOpened)), "share"},

		"runtime.gc_cpu_share":        {ratio(rt(0), rt(1)-rt(2)), "share"},
		"runtime.alloc_bytes_per_row": {ratio(rt(3), float64(rec.rows)), "B"},
		"runtime.allocs_per_row":      {ratio(rt(4), float64(rec.rows)), "count"},
	}
	for _, layer := range cpuLayers {
		m[layer+".cpu_share"] = metric{shares[layer], "share"}
	}
	return m, nil
}

// profileShares buckets the profile's samples into cpuLayers with the
// toolchain's `go tool pprof -traces -lines`, returning each layer's
// share of all sampled CPU time (the shares sum to 1).
func profileShares(path string) (map[string]float64, error) {
	var out bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-lines", path)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return bucketTraces(&out)
}

// bucketTraces parses `pprof -traces -lines` output: blocks separated by
// dashed lines, each starting with the sample's value and the leaf frame
// followed by one caller per line.
func bucketTraces(r *bytes.Buffer) (map[string]float64, error) {
	spent := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			spent[stackLayer(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	inBlock := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue // the header (File:, Type:, ...) precedes the first block
		}
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) > 1 {
			flush()
			value = d
			fields = fields[1:]
		}
		stack = append(stack, strings.Join(fields, " "))
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile has no samples")
	}
	shares := map[string]float64{}
	for layer, d := range spent {
		shares[layer] = float64(d) / float64(total)
	}
	return shares, nil
}

// stackLayer attributes one sample's self time. Runtime leaves go to
// runtime; a layer's own leaves go to that layer; standard-library
// leaves go to the nearest caller that is a runtime, layer or benchmark
// frame, since the library ran on that caller's behalf.
func stackLayer(stack []string) string {
	for _, frame := range stack {
		if layer, ok := frameLayer(frame); ok {
			return layer
		}
	}
	return "other"
}

// frameLayer classifies one "function file:line" frame; ok is false for
// standard-library frames outside the runtime.
func frameLayer(frame string) (string, bool) {
	fn, file, _ := strings.Cut(frame, " ")
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		return fileLayer(fn, file), true
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/") || fn == "gcWriteBarrier":
		return "runtime", true
	case strings.HasPrefix(fn, "main."):
		return "other", true
	}
	return "", false
}

// fileLayer maps a frame of this module to its layer by the package
// directory of its source file (inlined closures carry the name of the
// function they were inlined into, the file is exact), falling back to
// the function's package path.
func fileLayer(fn, file string) string {
	pkg := ""
	if i := strings.LastIndex(file, "/internal/"); i >= 0 {
		rest := file[i+len("/internal/"):]
		if j := strings.IndexByte(rest, '/'); j > 0 {
			pkg = rest[:j]
			if pkg == "netsim" && strings.HasPrefix(rest[j+1:], "switch.go") {
				return "switch"
			}
		}
	}
	if pkg == "" {
		pkg = strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
	}
	if layer, ok := layerOf[pkg]; ok {
		return layer
	}
	return "other"
}
