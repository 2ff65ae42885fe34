package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pathology"
	"repro/internal/profiles"
	"repro/internal/testbed"
)

// collectSink gathers streamed rows for reconstruction in tests.
type collectSink struct {
	rows []Row
}

func (c *collectSink) ObserveRow(r Row) { c.rows = append(c.rows, r) }

// reconstructDevices sorts rows by (Shard, Index) — the documented
// global order — and strips them back to DeviceResults.
func reconstructDevices(rows []Row) []DeviceResult {
	sorted := append([]Row(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Shard != sorted[j].Shard {
			return sorted[i].Shard < sorted[j].Shard
		}
		return sorted[i].Index < sorted[j].Index
	})
	out := make([]DeviceResult, len(sorted))
	for i, r := range sorted {
		out[i] = r.DeviceResult
	}
	return out
}

// streamRegime is one fault-injection flavor the stream ≡ legacy
// goldens run under.
type streamRegime struct {
	name string
	fac  func(seed int64, n int) SizedWorldFactory
	run  RunOptions
}

// streamRegimes covers the three regimes the tentpole names: link
// impairment, reboot churn, and a stateful pathology (grid-aligned
// flap schedule + recovery).
func streamRegimes(n int) []streamRegime {
	return []streamRegime{
		{
			name: "impair",
			fac: func(seed int64, _ int) SizedWorldFactory {
				fac := testbed.Factory{Spec: ChaosSpec(seed, n, 0, 0.10, 0)}
				return func(int) (*testbed.Testbed, error) { return fac.Build() }
			},
		},
		{
			name: "churn",
			fac: func(_ int64, _ int) SizedWorldFactory {
				fac := testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}
				return func(int) (*testbed.Testbed, error) { return fac.Build() }
			},
			run: RunOptions{RebootsPerDevice: 1, ConvergeTimeout: 30 * time.Second},
		},
		{
			name: "stateful",
			fac: func(_ int64, _ int) SizedWorldFactory {
				return pathology.FactorySized(
					testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}.Build, "dns64-flapping")
			},
		},
	}
}

// TestStreamedRowsMatchLegacy is the flat-path stream ≡ legacy golden:
// for impairment, churn and a stateful pathology, seeds 1..5 and
// K ∈ {2, 8}, a sharded run with DiscardDevices and a streaming sink
// must reproduce the legacy retained-Devices serial report exactly —
// aggregates from the incremental fold, per-device rows reconstructed
// from the stream in (Shard, Index) order.
func TestStreamedRowsMatchLegacy(t *testing.T) {
	const n = 10
	for _, reg := range streamRegimes(n) {
		for seed := int64(1); seed <= 5; seed++ {
			devices := Population(seed, n, DefaultMix())
			fac := reg.fac(seed, n)

			world, err := fac(len(devices))
			if err != nil {
				t.Fatalf("%s seed %d: %v", reg.name, seed, err)
			}
			legacy := RunWith(world, devices, reg.run)
			world.Close()

			for _, k := range []int{2, 8} {
				t.Run(fmt.Sprintf("%s/seed%d/k%d", reg.name, seed, k), func(t *testing.T) {
					sink := &collectSink{}
					ro := reg.run
					ro.Sink = sink
					ro.DiscardDevices = true
					streamed, err := RunShardedSized(fac, devices, ShardOptions{
						Shards: k, Seed: seed, Run: ro,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(streamed.Devices) != 0 {
						t.Fatalf("DiscardDevices run retained %d devices", len(streamed.Devices))
					}
					if len(sink.rows) != len(devices) {
						t.Fatalf("streamed %d rows, want %d", len(sink.rows), len(devices))
					}
					streamed.Devices = reconstructDevices(sink.rows)
					assertReportsMatch(t, legacy, streamed)
				})
			}
		}
	}
}

// TestStreamedRowsMatchLegacyFabric extends the stream ≡ legacy golden
// to the fabric engine: subtree-sharded runs under 10% loss (and a
// churn variant) with DiscardDevices plus a sink must rebuild the
// legacy serial fabric report row for row.
func TestStreamedRowsMatchLegacyFabric(t *testing.T) {
	cases := []struct {
		name string
		spec testbed.Topology
		opt  FabricOptions
	}{
		{
			name: "impair",
			spec: fabricSpec(3),
			opt:  FabricOptions{Seed: 3, ActorsPerDomain: 2},
		},
		{
			name: "churn",
			spec: func() testbed.Topology {
				spec := testbed.FabricTopology(testbed.DefaultOptions(), 4, 4)
				spec.Impair = netsim.Impairment{Loss: 0.05}
				spec.ChaosSeed = 7
				return spec
			}(),
			opt: FabricOptions{Seed: 7, ActorsPerDomain: 2, Run: RunOptions{RebootsPerDevice: 1}},
		},
	}
	for _, tc := range cases {
		legacy, err := RunFabric(tc.spec, tc.opt)
		if err != nil {
			t.Fatalf("%s serial: %v", tc.name, err)
		}
		for _, k := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/k%d", tc.name, k), func(t *testing.T) {
				sink := &collectSink{}
				opt := tc.opt
				opt.Shards = k
				opt.Run.Sink = sink
				opt.Run.DiscardDevices = true
				streamed, err := RunFabric(tc.spec, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(streamed.Devices) != 0 {
					t.Fatalf("DiscardDevices run retained %d devices", len(streamed.Devices))
				}
				if len(sink.rows) != len(legacy.Devices) {
					t.Fatalf("streamed %d rows, want %d", len(sink.rows), len(legacy.Devices))
				}
				streamed.Devices = reconstructDevices(sink.rows)
				assertReportsMatch(t, legacy, streamed)
			})
		}
	}
}

// reportDigest hashes every observable field of a report — aggregates,
// per-device rows, per-class and per-profile folds and traffic ledgers —
// into one hex digest, so two reports are equal iff their digests are.
func reportDigest(rep *Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "agg %d %d %d %d %d %d %d %d %d %d\n",
		rep.Joined, rep.Informed, rep.InternetOK, rep.ReportedSSIDClients,
		rep.TrueIPv6Only, rep.Overcount, rep.NAT44LogEntries, rep.NAT64Sessions,
		rep.PoisonedQueries, rep.HealthyQueries)
	for _, d := range rep.Devices {
		fmt.Fprintf(h, "dev %s %s %v %v %v %v %v %v %+v\n",
			d.Spec.Name, d.Class, d.Informed, d.Internet, d.UsedIPv6,
			d.Churned, d.Reconverged, d.ConvergeTime, d.Flows)
	}
	classes := make([]string, 0, len(rep.Classes))
	for c := range rep.Classes {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(h, "class %s %d\n", c, rep.Classes[metrics.Class(c)])
	}
	profs := make([]string, 0, len(rep.Profiles))
	for p := range rep.Profiles {
		profs = append(profs, p)
	}
	sort.Strings(profs)
	for _, p := range profs {
		fmt.Fprintf(h, "prof %s %+v\n", p, rep.Profiles[p])
	}
	convs := make([]string, 0, len(rep.Convergence))
	for c := range rep.Convergence {
		convs = append(convs, string(c))
	}
	sort.Strings(convs)
	for _, c := range convs {
		fmt.Fprintf(h, "conv %s %+v\n", c, rep.Convergence[metrics.Class(c)])
	}
	if rep.Traffic != nil {
		fmt.Fprintf(h, "traffic %+v %+v\n", rep.Traffic.Flows, rep.Traffic.Gateway)
		tcs := make([]string, 0, len(rep.Traffic.PerClass))
		for c := range rep.Traffic.PerClass {
			tcs = append(tcs, string(c))
		}
		sort.Strings(tcs)
		for _, c := range tcs {
			fmt.Fprintf(h, "tclass %s %+v\n", c, rep.Traffic.PerClass[metrics.Class(c)])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resetRegimes are the fault-injection flavors the Reset-vs-fresh
// golden runs under: chaos impairment, reboot churn, and the stateful
// pathologies with schedules and budgets.
func resetRegimes(n int) []streamRegime {
	regs := streamRegimes(n)
	regs = append(regs, streamRegime{
		name: "exhaustion",
		fac: func(_ int64, _ int) SizedWorldFactory {
			return pathology.FactorySized(
				testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}.Build, "nat64-port-exhaustion")
		},
	})
	return regs
}

// TestResetMatchesFreshBuild is the world-reuse golden: a checkpointed
// world that runs a population, Resets, and runs again must reproduce a
// fresh-build world's report digest-for-digest, under chaos, churn and
// stateful-pathology regimes. This pins the entire checkpoint layer —
// event queue, switch tables, gateway NAT/DHCP state, resolver caches,
// RA beacon phase and pathology gates all rewound exactly.
func TestResetMatchesFreshBuild(t *testing.T) {
	const n = 10
	for _, reg := range resetRegimes(n) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", reg.name, seed), func(t *testing.T) {
				devices := Population(seed, n, DefaultMix())
				fac := reg.fac(seed, n)

				fresh, err := fac(len(devices))
				if err != nil {
					t.Fatal(err)
				}
				want := RunWith(fresh, devices, reg.run)
				wantDig := reportDigest(want)
				fresh.Close()

				world, err := fac(len(devices))
				if err != nil {
					t.Fatal(err)
				}
				defer world.Close()
				if err := world.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				for cycle := 1; cycle <= 2; cycle++ {
					rep := RunWith(world, devices, reg.run)
					if dig := reportDigest(rep); dig != wantDig {
						t.Fatalf("cycle %d: pooled-world digest %s != fresh-build %s", cycle, dig, wantDig)
					}
					assertReportsMatch(t, want, rep)
					if err := world.Reset(); err != nil {
						t.Fatalf("cycle %d Reset: %v", cycle, err)
					}
				}
				// And once more after the final Reset: the world must
				// still be exactly at its post-Build state.
				rep := RunWith(world, devices, reg.run)
				if dig := reportDigest(rep); dig != wantDig {
					t.Fatalf("post-final-reset digest %s != fresh-build %s", dig, wantDig)
				}
			})
		}
	}
}

// TestWorldPoolReuse pins the pool lifecycle: the first sharded run
// builds K worlds, the second run with the same pool builds none, and
// both produce the legacy serial report exactly.
func TestWorldPoolReuse(t *testing.T) {
	const n = 12
	const seed = int64(2)
	devices := Population(seed, n, DefaultMix())
	fac := testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}

	world, err := fac.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := Run(world, devices)
	world.Close()

	pool := NewWorldPool()
	defer pool.Close()
	builds := 0
	counted := func(int) (*testbed.Testbed, error) {
		builds++
		return fac.Build()
	}
	for run := 1; run <= 3; run++ {
		rep, err := RunShardedSized(counted, devices, ShardOptions{
			Shards: 4, Workers: 1, Seed: seed, Pool: pool,
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		assertReportsMatch(t, want, rep)
		// All four shards host n/4 = 3 devices, so they share one pool
		// key; with one worker the first run builds once and reuses.
		if run == 1 && builds == 0 {
			t.Fatal("first run built no worlds")
		}
	}
	if builds > 4 {
		t.Errorf("3 pooled runs built %d worlds (expected at most one per shard slot)", builds)
	}
}

// TestWorldPoolFabricReuse runs the fabric engine twice through one
// pool: the second run must reuse every subtree world and still match
// the serial report.
func TestWorldPoolFabricReuse(t *testing.T) {
	spec := testbed.FabricTopology(testbed.DefaultOptions(), 4, 4)
	opt := FabricOptions{Seed: 1, ActorsPerDomain: 2}
	want, err := RunFabric(spec, opt)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewWorldPool()
	defer pool.Close()
	opt.Shards = 2
	opt.Pool = pool
	for run := 1; run <= 2; run++ {
		rep, err := RunFabric(spec, opt)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		assertReportsMatch(t, want, rep)
	}
}

// TestWorldPoolContracts pins the pool keys callers park worlds under
// ahead of a run, and the nil-pool lifecycle. Flat shard worlds are
// keyed by shard device count and a serial fabric run by subtree 0, so
// a world parked under that key serves the run with no build at all;
// with no pool, every shard builds its own world exactly once and the
// engine closes it. A pooled run whose factory returns a world that
// cannot checkpoint fails instead of running it unpooled.
func TestWorldPoolContracts(t *testing.T) {
	t.Run("sized-keys", func(t *testing.T) {
		const n, k = 10, 4 // shard sizes 2, 3, 2, 3
		devices := Population(5, n, DefaultMix())
		fac := testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}
		world, err := fac.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := Run(world, devices)
		world.Close()

		pool := NewWorldPool()
		defer pool.Close()
		for _, s := range ShardDevices(5, devices, k)[:2] {
			tb, err := fac.Build()
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			pool.Put(len(s.Devices), tb)
		}
		calls := 0
		counted := func(int) (*testbed.Testbed, error) {
			calls++
			return fac.Build()
		}
		rep, err := RunShardedSized(counted, devices, ShardOptions{Shards: k, Workers: 1, Seed: 5, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 0 {
			t.Errorf("factory called %d times, want 0 (worlds parked under every shard size)", calls)
		}
		assertReportsMatch(t, want, rep)
	})

	t.Run("fabric-serial-key0", func(t *testing.T) {
		spec := testbed.FabricTopology(testbed.DefaultOptions(), 4, 4)
		opt := FabricOptions{Seed: 1, ActorsPerDomain: 2}
		want, err := RunFabric(spec, opt)
		if err != nil {
			t.Fatal(err)
		}

		tb, err := testbed.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		parkedAt := tb.Net.Clock.Now()
		pool := NewWorldPool()
		defer pool.Close()
		pool.Put(0, tb)

		opt.Pool = pool
		rep, err := RunFabric(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertReportsMatch(t, want, rep)
		if len(rep.Shards) != 1 || rep.Shards[0].Devices != 8 {
			t.Errorf("serial fabric shard metadata = %+v, want one shard of 8 devices", rep.Shards)
		}
		if !tb.Net.Clock.Now().After(parkedAt) {
			t.Error("the world parked under key 0 did not run the serial fabric scenario")
		}
		got, err := pool.Get(0, func() (*testbed.Testbed, error) {
			t.Fatal("pool built a world although one was parked under key 0")
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != tb {
			t.Error("pool.Get(0) after the run returned a different world")
		}
		pool.Put(0, got)
	})

	t.Run("nil-pool", func(t *testing.T) {
		const n, k = 12, 4
		devices := Population(2, n, DefaultMix())
		fac := testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}
		var mu sync.Mutex
		var built []*testbed.Testbed
		counted := func(int) (*testbed.Testbed, error) {
			tb, err := fac.Build()
			mu.Lock()
			built = append(built, tb)
			mu.Unlock()
			return tb, err
		}
		if _, err := RunShardedSized(counted, devices, ShardOptions{Shards: k, Seed: 2}); err != nil {
			t.Fatal(err)
		}
		if len(built) != k {
			t.Errorf("built %d worlds for %d shards, want one each", len(built), k)
		}
		for i, tb := range built {
			if !tb.Net.Stopped() {
				t.Errorf("world %d still running after the run (want Close)", i)
			}
		}
	})

	t.Run("clients-built", func(t *testing.T) {
		const n, k = 4, 2
		devices := Population(3, n, DefaultMix())
		fac := testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}
		var mu sync.Mutex
		var built []*testbed.Testbed
		early := func(int) (*testbed.Testbed, error) {
			tb, err := fac.Build()
			if err != nil {
				return nil, err
			}
			tb.AddClient("early", profiles.IOS())
			mu.Lock()
			built = append(built, tb)
			mu.Unlock()
			return tb, nil
		}
		pool := NewWorldPool()
		defer pool.Close()
		_, err := RunShardedSized(early, devices, ShardOptions{Shards: k, Seed: 3, Pool: pool})
		if !errors.Is(err, testbed.ErrClientsBuilt) {
			t.Fatalf("pooled run on worlds with a client: err = %v, want ErrClientsBuilt", err)
		}
		if len(built) == 0 {
			t.Fatal("factory never called")
		}
		for i, tb := range built {
			if !tb.Net.Stopped() {
				t.Errorf("world %d still running after the failed Get (want Close)", i)
			}
		}
	})
}

// TestWorldPoolClose pins the teardown contract: Close tears down idle
// worlds but leaves the pool usable (a later Get builds fresh).
func TestWorldPoolClose(t *testing.T) {
	fac := testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), 4)}
	pool := NewWorldPool()
	builds := 0
	build := func() (*testbed.Testbed, error) {
		builds++
		return fac.Build()
	}
	tb, err := pool.Get("k", build)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put("k", tb)
	pool.Close()
	tb2, err := pool.Get("k", build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Errorf("Get after Close built %d worlds total, want 2 (idle world was torn down)", builds)
	}
	pool.Put("k", tb2)
	pool.Close()
}
