package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/testbed"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	timed    time.Duration
	trace    bool
	out      string
}

// outcome is everything report prints.
type outcome struct {
	correct bool
	digest  uint64    // the warm-up pass's combined call digests
	e2e     *recorder // the untraced timed phase
	traced  *recorder // the traced phase (trace runs only)
	layers  map[string]metric
}

// workload is one benchmark input set. setup builds, checkpoints and
// parks every world the timed phase needs into its emptied pools; pass
// runs one closed-loop unit of work, issuing each Run* call through
// bench.call only after the previous one returned; close tears down the
// parked worlds (the pools stay usable, so setup can run again).
type workload interface {
	setup(b *bench) error
	pass(b *bench) error
	close()
}

var workloads = map[string]func(seed int64) workload{
	"million": newMillion,
	"grid":    newGrid,
	"traffic": newTraffic,
}

// Set-up is repeated in two batches, one before and one after the timed
// phases, so one slow stretch of the host cannot set the figure. Each
// batch runs at least minSetupReps repetitions, then more until it has
// spent setupBatchBudget or run maxSetupReps.
const (
	minSetupReps     = 5
	maxSetupReps     = 400
	setupBatchBudget = 750 * time.Millisecond
)

// settle is the percentile (basis points) that folds a figure's
// repetitions into the reported value. Interference from outside the
// process only ever adds host time, and on a shared host it comes in
// stretches of seconds that can cover most of a run, so a low percentile
// tracks what the program itself costs; p10 rather than the minimum
// still ignores the odd fast outlier.
const settle = 1000

// workers is the sharded engines' worker count. On a host of a few
// shared cores, shards running in parallel keep every core busy and the
// figures follow the co-tenants' load (traffic's pass time switched
// between two levels 1.6x apart within one run on 2 vCPUs); one worker
// leaves a core to the collector and measures the program.
const workers = 1

// bench is the driver state one invocation threads through its
// workload.
type bench struct {
	rec    *recorder // the phase being measured
	tr     *tracer   // nil outside traced set-up, traced phase and counting pass
	expect []uint64  // per-call digests of the warm-up pass
	got    []uint64  // per-call digests of the current pass
	// intervals is the trial buffer every recorder borrows in turn, so
	// the timed phase reuses the capacity the warm-up pass grew.
	intervals []float64

	// mu guards what world factories touch: shard workers build
	// concurrently.
	mu     sync.Mutex
	worlds []*world // the worlds the current counting-pass call built
}

// execute runs set-up, the warm-up pass and the timed phase(s).
func execute(w workload, cfg config) (*outcome, error) {
	defer w.close()
	b := &bench{intervals: make([]float64, 0, 2*trialBlock)}
	res := &outcome{correct: true}
	timed := cfg.timed

	var tracedSetup float64
	if cfg.trace {
		// The traced set-up repetition goes first, so the worlds the
		// phases run on come from an untraced set-up like every other run.
		b.tr = newTracer()
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			return nil, err
		}
		tracedSetup = time.Since(t0).Seconds()
		b.tr.inSetup = false
		timed /= 2
	}
	tr := b.tr
	b.tr = nil
	setupTimes, err := b.setupReps(w, nil)
	if err != nil {
		return nil, err
	}

	// The warm-up pass fills lazy state, records the digests every later
	// pass must repeat and, for the default seed, checks them against
	// the recorded reference.
	b.rec = b.newRecorder()
	if err := b.pass(w); err != nil {
		return nil, err
	}
	if b.rec.failed > 0 {
		res.correct = false
	}
	b.intervals = b.rec.intervals[:0]
	b.expect = append([]uint64(nil), b.got...)
	res.digest = combine(b.expect)
	if want, ok := referenceDigests[cfg.workload]; ok && cfg.seed == defaultSeed && want != res.digest {
		res.correct = false
	}

	if res.e2e, err = b.phase(w, timed); err != nil {
		return nil, err
	}
	if cfg.trace {
		b.tr = tr
		if err := b.tr.start(cfg); err != nil {
			return nil, err
		}
		res.traced, err = b.phase(w, timed)
		stopErr := b.tr.stop()
		b.tr = nil
		if err != nil {
			return nil, err
		}
		if stopErr != nil {
			return nil, stopErr
		}
		res.traced.setupS = tracedSetup
	}
	if setupTimes, err = b.setupReps(w, setupTimes); err != nil {
		return nil, err
	}
	res.e2e.setupS = quantile(setupTimes, settle)
	if !cfg.trace {
		return res, nil
	}

	// The counting pass reads the worlds' counters after every call.
	// Pooled worlds serve several shards of one call and Reset rewinds
	// their counters in between, so this one untimed pass runs every
	// call on worlds built for it alone (counters are identical either
	// way: the lab pins Reset against fresh builds at frame-trace
	// granularity).
	b.tr = tr
	b.tr.counting = true
	b.rec = b.newRecorder()
	if err := b.pass(w); err != nil {
		return nil, err
	}
	if b.rec.failed > 0 {
		res.correct = false
	}
	res.layers, err = b.tr.layers(res.traced)
	return res, err
}

// setupReps runs one batch of set-up repetitions, appending each one's
// host seconds to times. Each repetition first tears down the previous
// world set and collects it, untimed, so every one builds on the same
// clean heap; the last one's worlds are the ones later passes run on.
func (b *bench) setupReps(w workload, times []float64) ([]float64, error) {
	spent := time.Duration(0)
	for n := 0; n < minSetupReps || (spent < setupBatchBudget && n < maxSetupReps); n++ {
		w.close()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	return times, nil
}

// phase runs whole passes until d has elapsed (at least one).
func (b *bench) phase(w workload, d time.Duration) (*recorder, error) {
	runtime.GC()
	b.rec = b.newRecorder()
	for b.rec.passes == 0 || time.Since(b.rec.start) < d {
		if err := b.pass(w); err != nil {
			return nil, err
		}
	}
	b.rec.elapsed = time.Since(b.rec.start)
	b.rec.finish()
	b.intervals = b.rec.intervals[:0]
	return b.rec, nil
}

func (b *bench) pass(w workload) error {
	b.got = b.got[:0]
	if err := w.pass(b); err != nil {
		return err
	}
	b.rec.endPass()
	return nil
}

// counting reports whether this is the counting pass.
func (b *bench) counting() bool { return b.tr != nil && b.tr.counting }

// pool returns p for a sharded run, or nil during the counting pass.
func (b *bench) pool(p *scenario.WorldPool) *scenario.WorldPool {
	if b.counting() {
		return nil
	}
	return p
}

// build runs one world construction (a factory wrapper around
// testbed.Build). In the traced set-up and phase it records the build's
// span; in the counting pass it registers the world for counter reads.
// clients is the number of clients the world registers or will host, the
// divisor of testbed.bytes_per_client. Shard workers call it
// concurrently.
func (b *bench) build(clients int, fn func() (*testbed.Testbed, error)) (*testbed.Testbed, error) {
	// Only the driver goroutine builds during set-up, so settling the
	// heap around a traced set-up build measures that build alone.
	inSetup := b.tr != nil && b.tr.inSetup
	var before uint64
	if inSetup {
		before = settledHeap()
	}
	t0 := time.Now()
	tb, err := fn()
	d := time.Since(t0)
	if err != nil {
		return nil, err
	}
	var after uint64
	if inSetup {
		after = settledHeap()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.tr == nil:
	case b.tr.counting:
		b.worlds = append(b.worlds, &world{tb: tb, base: readCounters(tb)})
	default:
		b.tr.build.add(d)
		if inSetup {
			b.tr.builtBytes += int64(after) - int64(before)
			b.tr.builtClients += int64(clients)
		} else {
			b.tr.builds++
		}
	}
	return tb, nil
}

// sized wraps a sized world factory in build, for the sharded engines.
func (b *bench) sized(f scenario.SizedWorldFactory) scenario.SizedWorldFactory {
	return func(n int) (*testbed.Testbed, error) {
		return b.build(n, func() (*testbed.Testbed, error) { return f(n) })
	}
}

// checkpoint captures tb's post-Build state so a pool can rewind it.
func (b *bench) checkpoint(tb *testbed.Testbed) error {
	t0 := time.Now()
	err := tb.Checkpoint()
	if b.tr != nil {
		b.tr.checkpoint.add(time.Since(t0))
	}
	return err
}

// warmPool builds, checkpoints and parks the worlds one sharded run over
// sizes needs: for each distinct shard size, as many worlds as can be
// checked out at once.
func (b *bench) warmPool(pool *scenario.WorldPool, f scenario.SizedWorldFactory, sizes []int) error {
	count := map[int]int{}
	for _, n := range sizes {
		count[n]++
	}
	keys := make([]int, 0, len(count))
	for n := range count {
		keys = append(keys, n)
	}
	sort.Ints(keys)
	for _, n := range keys {
		for i := 0; i < min(count[n], workers); i++ {
			tb, err := b.build(n, func() (*testbed.Testbed, error) { return f(n) })
			if err != nil {
				return err
			}
			if err := b.checkpoint(tb); err != nil {
				tb.Close()
				return err
			}
			pool.Put(n, tb)
		}
	}
	return nil
}

// call issues one Run* call: run receives the sink every row must go
// through (onRow, when set, is the workload's own per-row work). The
// call fails if run errors, the rows do not cover sizes exactly, or the
// digest differs from the warm-up pass's call at the same position.
func (b *bench) call(sizes []int, onRow func(scenario.Row), run func(scenario.RowSink) (*scenario.Report, error)) {
	c := b.rec.begin(sizes)
	emit := onRow
	if onRow != nil && b.tr != nil && !b.tr.counting {
		emit = func(r scenario.Row) {
			t0 := time.Now()
			onRow(r)
			b.tr.emit.add(time.Since(t0))
		}
	}
	rep, err := run(scenario.RowSinkFunc(func(r scenario.Row) {
		c.observe(r)
		if emit != nil {
			emit(r)
		}
	}))
	end := time.Now()
	ok := err == nil && c.complete(rep) == nil
	var d uint64
	if rep != nil {
		d = digest(rep, c.rows)
	}
	i := len(b.got)
	b.got = append(b.got, d)
	if b.expect != nil && (i >= len(b.expect) || b.expect[i] != d) {
		ok = false
	}
	b.rec.calls++
	if i == len(b.rec.callTimes) {
		b.rec.callTimes = append(b.rec.callTimes, nil)
	}
	b.rec.callTimes[i] = append(b.rec.callTimes[i], end.Sub(c.start).Seconds())
	if !ok {
		b.rec.failed++
	}
	if rep != nil && rep.Traffic != nil {
		b.rec.bytesDown += rep.Traffic.Flows.BytesDown
	}
	switch {
	case b.tr == nil:
	case b.tr.counting:
		b.tr.count(b.worlds, len(c.rows), rep)
		clear(b.worlds)
		b.worlds = b.worlds[:0]
	default:
		b.tr.afterCall(c, end)
	}
}

// recorder accumulates one phase's end-to-end measurements.
type recorder struct {
	start   time.Time
	elapsed time.Duration
	setupS  float64

	passes, calls, failed, rows int
	// intervals are the per-trial host times in ms (see callState.observe)
	// of the open trial block: a run of whole passes that closes once it
	// holds at least trialBlock trials. Each closed block is reduced to
	// its percentiles and its samples dropped, so the buffer's size does
	// not grow with throughput (it would show in peak_heap_mb).
	intervals []float64
	// p50s and tails hold each closed block's percentiles; tailP is the
	// tail percentile of the last one and trials the trials they cover.
	p50s, tails []float64
	tailP       int
	trials      int
	// callTimes[j] holds the host seconds of the j-th Run* call of every
	// pass.
	callTimes [][]float64
	// passPeaks holds each pass's peak live heap in bytes; passPeak is the
	// current pass's so far.
	passPeaks []float64
	passPeak  uint64
	bytesDown int64
	heap      []rtmetrics.Sample
}

func (b *bench) newRecorder() *recorder {
	return &recorder{
		start:     time.Now(),
		intervals: b.intervals[:0],
		heap:      []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
}

// sampleHeap folds the live heap measured at the last GC mark into the
// pass's peak.
func (r *recorder) sampleHeap() {
	rtmetrics.Read(r.heap)
	if r.heap[0].Value.Kind() == rtmetrics.KindUint64 {
		r.passPeak = max(r.passPeak, r.heap[0].Value.Uint64())
	}
}

// heapSampleEvery is how many rows pass between live-heap samples. The
// value changes only at GC marks, so sparse sampling loses little.
const heapSampleEvery = 16

// endPass closes the pass's heap peak and, once enough trials have
// accumulated since the last one, a trial block.
func (r *recorder) endPass() {
	r.passes++
	r.sampleHeap()
	r.passPeaks = append(r.passPeaks, float64(r.passPeak))
	r.passPeak = 0
	if len(r.intervals) >= trialBlock {
		r.closeBlock()
	}
}

// closeBlock reduces the open trial block to its percentiles.
func (r *recorder) closeBlock() {
	sort.Float64s(r.intervals)
	r.tailP = tailPercentile(len(r.intervals))
	r.p50s = append(r.p50s, percentile(r.intervals, 5000))
	r.tails = append(r.tails, percentile(r.intervals, r.tailP))
	r.trials += len(r.intervals)
	r.intervals = r.intervals[:0]
}

// finish ends the phase: a phase too short to fill one block reports
// its partial block; otherwise the trailing partial block is dropped.
func (r *recorder) finish() {
	if len(r.p50s) == 0 && len(r.intervals) > 0 {
		r.closeBlock()
	}
}

// callState tracks one Run* call's rows.
type callState struct {
	rec      *recorder
	start    time.Time
	sizes    []int
	last     []time.Time // per shard: when its latest row arrived
	lastDone time.Time   // when the latest shard delivered its final row
	firstRow time.Time
	rows     []rowEntry
	bad      bool
}

func (r *recorder) begin(sizes []int) *callState {
	total := 0
	for _, n := range sizes {
		total += n
	}
	return &callState{
		rec:   r,
		start: time.Now(),
		sizes: sizes,
		last:  make([]time.Time, len(sizes)),
		rows:  make([]rowEntry, 0, total),
	}
}

// observe records one row. A trial's host time is the interval since
// the previous row of the same shard. A shard's first row counts from
// the later of the Run* call and the latest shard completion: with
// fewer workers than shards, a shard starts only when a worker frees up,
// and counting from the call would fold that queueing into the trial.
func (c *callState) observe(r scenario.Row) {
	now := time.Now()
	if r.Shard < 0 || r.Shard >= len(c.sizes) {
		c.bad = true
		return
	}
	if c.firstRow.IsZero() {
		c.firstRow = now
	}
	ref := c.last[r.Shard]
	if ref.IsZero() {
		ref = c.start
		if c.lastDone.After(ref) {
			ref = c.lastDone
		}
	}
	c.rec.intervals = append(c.rec.intervals, float64(now.Sub(ref))/float64(time.Millisecond))
	c.last[r.Shard] = now
	if r.Index == c.sizes[r.Shard]-1 {
		c.lastDone = now
	}
	c.rows = append(c.rows, newRowEntry(r))
	c.rec.rows++
	if c.rec.rows%heapSampleEvery == 0 {
		c.rec.sampleHeap()
	}
}

// complete checks that the call's rows cover every (shard, index) of
// sizes exactly once and agree with the report's population count.
func (c *callState) complete(rep *scenario.Report) error {
	if c.bad {
		return errors.New("row from an unknown shard")
	}
	total := 0
	for _, n := range c.sizes {
		total += n
	}
	if len(c.rows) != total || rep.Joined != total {
		return fmt.Errorf("rows=%d joined=%d, want %d", len(c.rows), rep.Joined, total)
	}
	seen := make([][]bool, len(c.sizes))
	for i, n := range c.sizes {
		seen[i] = make([]bool, n)
	}
	for _, e := range c.rows {
		if e.index < 0 || e.index >= c.sizes[e.shard] || seen[e.shard][e.index] {
			return fmt.Errorf("row (%d, %d) out of range or repeated", e.shard, e.index)
		}
		seen[e.shard][e.index] = true
	}
	return nil
}

// tailLadder is the set of percentiles trial_p99_ms may report, highest
// first, in basis points. The tail reported is the highest one with at
// least minBeyond samples beyond it; the ladder stops at p99, the tail
// the metric is named for.
var tailLadder = []int{9900, 9000, 5000}

const minBeyond = 10

// trialBlock is the fewest trials a block holds: enough for p99 to leave
// minBeyond trials beyond it.
const trialBlock = 1000

// rank is the 1-based nearest-rank position of percentile p (basis
// points) among n sorted samples.
func rank(n, p int) int {
	return max(1, (p*n+9999)/10000)
}

// tailPercentile returns the percentile (basis points) trial_p99_ms
// reports for n samples.
func tailPercentile(n int) int {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// percentile returns the nearest-rank percentile p (basis points) of
// sorted, which must be non-empty.
func percentile(sorted []float64, p int) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// quantile returns the nearest-rank percentile p (basis points) of v, or
// 0 for no samples.
func quantile(v []float64, p int) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	return percentile(sorted, p)
}

func median(v []float64) float64 { return quantile(v, 5000) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stats are the recorder's end-to-end figures.
type stats struct {
	rowsPerS, p50, tail, heapMB, failRatio, goodput float64
	tailP, blocks                                   int
}

// stats computes the figures, each folded over the phase's repetitions
// so that stretches of interference from outside the process are voted
// out:
//   - throughput is one pass's rows (or bytes) over a typical pass's
//     host time: the sum, over the pass's Run* calls, of each call's
//     settle percentile time across passes;
//   - the trial percentiles are the settle percentiles, over blocks of
//     at least trialBlock trials, of each block's percentile;
//   - the heap is the median over passes of each pass's peak.
func (r *recorder) stats() stats {
	passTime := 0.0
	for _, times := range r.callTimes {
		passTime += quantile(times, settle)
	}
	passes := float64(max(r.passes, 1))
	s := stats{
		rowsPerS:  ratio(float64(r.rows)/passes, passTime),
		heapMB:    median(r.passPeaks) / (1 << 20),
		goodput:   ratio(float64(r.bytesDown)/passes/(1<<20), passTime),
		p50:       quantile(r.p50s, settle),
		tail:      quantile(r.tails, settle),
		tailP:     r.tailP,
		blocks:    len(r.tails),
		failRatio: ratio(float64(r.failed), float64(r.calls)),
	}
	return s
}

// metrics are the end-to-end metrics BENCHMARK.json lists.
func (r *recorder) metrics() map[string]metric {
	s := r.stats()
	return map[string]metric{
		"setup_s":      {r.setupS, "s"},
		"rows_per_s":   {s.rowsPerS, "rows/s"},
		"trial_p50_ms": {s.p50, "ms"},
		"peak_heap_mb": {s.heapMB, "MB"},
	}
}

// summary prints every end-to-end figure by name and unit, including
// the three the result object leaves out: trial_p99_ms (too noisy on a
// shared host to gate), fail_ratio (carried as failed/attempted) and
// goodput_mbps (traffic only).
func (r *recorder) summary() string {
	s := r.stats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "setup_s=%.6g s rows_per_s=%.6g rows/s trial_p50_ms=%.6g ms trial_p99_ms=%.6g ms (p%g, p10 over %d blocks, %d trials) peak_heap_mb=%.6g MB fail_ratio=%g ratio",
		r.setupS, s.rowsPerS, s.p50, s.tail, float64(s.tailP)/100, s.blocks, r.trials, s.heapMB, s.failRatio)
	if r.bytesDown > 0 {
		fmt.Fprintf(&sb, " goodput_mbps=%.6g MB/s", s.goodput)
	}
	fmt.Fprintf(&sb, " passes=%d calls=%d rows=%d seconds=%.3f", r.passes, r.calls, r.rows, r.elapsed.Seconds())
	return sb.String()
}

// overhead states how much the traced phase's figures differ from the
// untraced phase's, as a signed share of the untraced value.
func overhead(plain, traced *recorder) string {
	a, b := plain.metrics(), traced.metrics()
	a["trial_p99_ms"] = metric{plain.stats().tail, "ms"}
	b["trial_p99_ms"] = metric{traced.stats().tail, "ms"}
	if plain.bytesDown > 0 {
		a["goodput_mbps"] = metric{plain.stats().goodput, "MB/s"}
		b["goodput_mbps"] = metric{traced.stats().goodput, "MB/s"}
	}
	var parts []string
	for _, name := range sortedKeys(a) {
		rel := math.NaN()
		if a[name].Value != 0 {
			rel = b[name].Value/a[name].Value - 1
		}
		parts = append(parts, fmt.Sprintf("%s=%+.1f%%", name, 100*rel))
	}
	return strings.Join(parts, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
