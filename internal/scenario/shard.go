package scenario

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// This file is the sharded execution engine: instead of bringing every
// device up serially on one world, the population is split into K
// deterministic shards, each shard runs on its own world inside a
// bounded worker pool, and the per-shard reports fold into one
// aggregate with an associative merge. Worlds are fully independent
// (own fabric, clock, MAC space), so the only cross-goroutine state is
// the result slots and the shared row sink. Beyond wall-clock
// parallelism there is an algorithmic win: broadcast-domain work (ARP,
// DHCP, RA flooding) is quadratic in clients-per-switch, so K worlds of
// N/K clients do ~1/K of the flooding a single N-client world does —
// the speedup holds even on one core.
//
// Both engines share one executor, runWorlds: RunShardedSized hands it
// one world per slice of the device list, RunFabric one world per
// access-switch subtree (a serial fabric run is subtree 0). The
// executor owns world acquisition, row-sink sharing, pooling and the
// merge, so flat and fabric runs differ only in how a world is built
// and what runs on it.

// SizedWorldFactory builds one fresh, independent world for a shard.
// The engine passes the number of devices this particular world hosts
// (a shard's slice, or the full population in a serial run), so a
// capacity-budgeted pathology (pathology.FactorySized) can split a
// global pool pro rata and keep serial ≡ sharded intact for
// exhaustion-driven failure modes. It must be safe to call from
// multiple goroutines — which it is whenever each call returns a
// brand-new Testbed.
type SizedWorldFactory func(devices int) (*testbed.Testbed, error)

// ShardOptions parameterizes RunShardedSized.
type ShardOptions struct {
	// Shards is the number of worlds the population splits across
	// (default 1, i.e. a serial run on a fresh world).
	Shards int
	// Workers bounds how many worlds are simulated concurrently
	// (default GOMAXPROCS, never more than Shards).
	Workers int
	// Seed is the base seed per-shard seeds derive from. Use the seed
	// the population was drawn with so the whole run is reproducible
	// from one number.
	Seed int64
	// Run carries per-device chaos options into every shard's world
	// (zero value = the classic workload). Run.Sink, when set, receives
	// every shard's rows through one serialized sink, each stamped with
	// its shard index.
	Run RunOptions
	// Pool, when non-nil, acquires shard worlds from the world-reuse
	// pool (keyed by shard device count) instead of building fresh and
	// closing after: repeated runs amortize world construction through
	// the testbed Checkpoint/Reset lifecycle.
	Pool *WorldPool
}

// ShardInfo records one shard of a partitioned run.
type ShardInfo struct {
	Index   int
	Seed    int64
	Devices int
}

// Shard is one deterministic slice of the population.
type Shard struct {
	Index int
	// Seed is derived from the base seed and the shard index (splitmix64
	// mixing), giving shard-local workloads an independent, reproducible
	// randomness stream.
	Seed    int64
	Devices []DeviceSpec
}

// ShardDevices splits devices into k contiguous, near-equal shards.
// Concatenating the shards in index order reproduces the input order
// exactly, so a merged report's device list matches the serial run's.
// k is clamped to [1, len(devices)] (a shard is never empty unless the
// population is).
func ShardDevices(seed int64, devices []DeviceSpec, k int) []Shard {
	if k < 1 {
		k = 1
	}
	if len(devices) > 0 && k > len(devices) {
		k = len(devices)
	}
	shards := make([]Shard, 0, k)
	for i := 0; i < k; i++ {
		lo := i * len(devices) / k
		hi := (i + 1) * len(devices) / k
		shards = append(shards, Shard{Index: i, Seed: deriveSeed(seed, i), Devices: devices[lo:hi]})
	}
	return shards
}

// deriveSeed mixes the base seed with a shard index through the
// splitmix64 finalizer, so adjacent shards get statistically unrelated
// seeds while staying a pure function of (seed, shard).
func deriveSeed(seed int64, shard int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(shard+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// ChaosSpec returns the scale topology for n devices with a link
// impairment attached: loss and jitter on every client link, and a chaos
// seed derived from (seed, cell) so each cell of a sweep draws its own
// reproducible loss pattern. With loss 0 it is the plain scale topology.
func ChaosSpec(seed int64, n int, cell int, loss float64, jitter time.Duration) testbed.Topology {
	spec := testbed.ScaleTopology(testbed.DefaultOptions(), n)
	if loss > 0 {
		spec.Impair = netsim.Impairment{Loss: loss, Jitter: jitter}
		spec.ChaosSeed = uint64(deriveSeed(seed, cell))
	}
	return spec
}

// RunShardedSized executes the population across opt.Shards worlds
// and merges the per-shard reports. Each shard's world is built with
// that shard's own device count, which is how a pathology Budget (a
// NAT64 port pool sized to quota × devices) splits across worlds so the
// sharded run has exactly the serial run's per-client capacity. The
// partition, the per-shard seeds and each world's simulation are all
// deterministic; only the interleaving of workers varies between runs,
// and the merge is insensitive to it. On a topology where device
// outcomes are position-independent (see testbed.ScaleTopology), the
// merged report's aggregate fields equal a serial Run's exactly.
func RunShardedSized(factory SizedWorldFactory, devices []DeviceSpec, opt ShardOptions) (*Report, error) {
	if factory == nil {
		return nil, errors.New("scenario: RunShardedSized needs a world factory")
	}
	shards := ShardDevices(opt.Seed, devices, opt.Shards)
	worlds := make([]shardWorld, len(shards))
	for i, s := range shards {
		n := len(s.Devices)
		worlds[i] = shardWorld{
			key:   n,
			info:  ShardInfo{Index: s.Index, Seed: s.Seed, Devices: n},
			build: func() (*testbed.Testbed, error) { return factory(n) },
			run: func(tb *testbed.Testbed, ro RunOptions) *Report {
				return RunWith(tb, s.Devices, ro)
			},
		}
	}
	return runWorlds(worlds, opt.Workers, opt.Pool, opt.Run)
}

// shardWorld is one unit of work for runWorlds: the pool key its world
// is parked under, the shard it reports as, how to build its world
// fresh, and the workload to run on it.
type shardWorld struct {
	key   any
	info  ShardInfo
	build func() (*testbed.Testbed, error)
	run   func(tb *testbed.Testbed, ro RunOptions) *Report
}

// runWorlds is the one shard executor. Up to workers goroutines (default
// GOMAXPROCS) each take a world from pool under its key — or, with a nil
// pool, build it fresh — run it with ro (rows stamped with the world's
// shard index and serialized through one shared sink), then park the
// world back, or Close it when there is no pool. Errors from every world
// are joined; otherwise the reports merge in world order and
// Report.Shards lists each world's ShardInfo.
func runWorlds(worlds []shardWorld, workers int, pool *WorldPool, ro RunOptions) (*Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(worlds) {
		workers = len(worlds)
	}
	if ro.Sink != nil {
		ro.Sink = &lockedSink{inner: ro.Sink}
	}
	reports := make([]*Report, len(worlds))
	errs := make([]error, len(worlds))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				reports[i], errs[i] = worlds[i].exec(pool, ro)
			}
		}()
	}
	for i := range worlds {
		next <- i
	}
	close(next)
	wg.Wait()

	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	rep := MergeReports(reports...)
	rep.Shards = make([]ShardInfo, len(worlds))
	for i, w := range worlds {
		rep.Shards[i] = w.info
	}
	return rep, nil
}

// exec acquires w's world, runs it and releases it (see runWorlds).
func (w shardWorld) exec(pool *WorldPool, ro RunOptions) (*Report, error) {
	var tb *testbed.Testbed
	var err error
	if pool != nil {
		tb, err = pool.Get(w.key, w.build)
	} else {
		tb, err = w.build()
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: shard %d: building world: %w", w.info.Index, err)
	}
	ro.rowShard = w.info.Index
	rep := w.run(tb, ro)
	if pool != nil {
		pool.Put(w.key, tb)
	} else {
		tb.Close()
	}
	return rep, nil
}

// MergeReports folds per-shard reports into one aggregate. Every
// counter merge is associative and commutative (sums and per-class
// tallies), so the result does not depend on grouping; only the order
// of Devices follows the argument order.
// Overcount is recomputed from the merged counters rather than summed,
// which is equivalent (it is linear in them) and keeps the invariant
// Overcount == ReportedSSIDClients - TrueIPv6Only by construction.
// Device retention is the shards' choice, not the merge's: shards run
// with DiscardDevices contribute nothing to the merged Devices slice
// (their aggregates were folded incrementally as they streamed), and a
// merge over such reports allocates no per-device state at all.
func MergeReports(parts ...*Report) *Report {
	out := &Report{}
	retained := 0
	for _, p := range parts {
		if p != nil {
			retained += len(p.Devices)
		}
	}
	if retained > 0 {
		out.Devices = make([]DeviceResult, 0, retained)
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Devices = append(out.Devices, p.Devices...)
		out.Joined += p.Joined
		out.Informed += p.Informed
		out.InternetOK += p.InternetOK
		out.ReportedSSIDClients += p.ReportedSSIDClients
		out.TrueIPv6Only += p.TrueIPv6Only
		out.NAT44LogEntries += p.NAT44LogEntries
		out.NAT64Sessions += p.NAT64Sessions
		out.PoisonedQueries += p.PoisonedQueries
		out.HealthyQueries += p.HealthyQueries
		out.Classes = metrics.MergeCounts(out.Classes, p.Classes)
		if p.Profiles != nil {
			if out.Profiles == nil {
				out.Profiles = make(map[string]ProfileCount, len(p.Profiles))
			}
			for name, pc := range p.Profiles {
				m := out.Profiles[name]
				m.Devices += pc.Devices
				m.InternetOK += pc.InternetOK
				out.Profiles[name] = m
			}
		}
		if p.Convergence != nil {
			if out.Convergence == nil {
				out.Convergence = make(map[metrics.Class]ClassConvergence)
			}
			for cls, cc := range p.Convergence {
				m := out.Convergence[cls]
				m.Devices += cc.Devices
				m.Reconverged += cc.Reconverged
				m.TotalTime += cc.TotalTime
				if cc.MaxTime > m.MaxTime {
					m.MaxTime = cc.MaxTime
				}
				out.Convergence[cls] = m
			}
		}
		mergeTraffic(&out.Traffic, p.Traffic)
	}
	out.Overcount = out.ReportedSSIDClients - out.TrueIPv6Only
	return out
}
