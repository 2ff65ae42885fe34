package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/metrics"
	"repro/internal/pathology"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// Workload sizes. README.md gives the reasons for each.
const (
	millionAccess     = 1000 // access switches (fabric domains)
	millionClientsPer = 1000 // registered clients per access switch

	gridDevices     = 200
	gridPopulations = 3
	// gridConvergeTimeout bounds post-reboot probing, as the -grid runner
	// of cmd/experiments does.
	gridConvergeTimeout = 30 * time.Second

	trafficDevices     = 64
	trafficShards      = 2
	trafficPopulations = 8
)

var (
	gridShards      = []int{1, 8}
	gridLoss        = []float64{0, 0.10}
	gridReboots     = []int{0, 1}
	gridPathologies = []string{pathology.None, "dns64-prefix-mismatch", "dns64-flapping"}
)

// million: one acting device per domain of the 1,000,000-client fabric,
// run serially by scenario.RunFabric on a world the benchmark builds,
// checkpoints and parks in the pool itself.
type million struct {
	seed int64
	spec testbed.Topology
	pool *scenario.WorldPool
}

func newMillion(seed int64) workload {
	return &million{
		seed: seed,
		spec: testbed.FabricTopology(testbed.DefaultOptions(), millionAccess, millionClientsPer),
		pool: scenario.NewWorldPool(),
	}
}

func (m *million) setup(b *bench) error { return m.park(b, m.pool) }

// park builds and checkpoints the fabric world and parks it in pool.
func (m *million) park(b *bench, pool *scenario.WorldPool) error {
	tb, err := b.build(millionAccess*millionClientsPer, func() (*testbed.Testbed, error) {
		return testbed.Build(m.spec)
	})
	if err != nil {
		return fmt.Errorf("building the fabric world: %w", err)
	}
	if err := b.checkpoint(tb); err != nil {
		tb.Close()
		return fmt.Errorf("checkpointing the fabric world: %w", err)
	}
	pool.Put(0, tb)
	return nil
}

func (m *million) pass(b *bench) error {
	pool := m.pool
	if b.counting() {
		// The counting pass runs on a world built for this call alone.
		pool = scenario.NewWorldPool()
		defer pool.Close()
		if err := m.park(b, pool); err != nil {
			return err
		}
	}
	b.call([]int{millionAccess}, nil, func(sink scenario.RowSink) (*scenario.Report, error) {
		return scenario.RunFabric(m.spec, scenario.FabricOptions{
			Seed:            m.seed,
			ActorsPerDomain: 1,
			Pool:            pool,
			Run:             scenario.RunOptions{Sink: sink, DiscardDevices: true},
		})
	})
	return nil
}

func (m *million) close() { m.pool.Close() }

// gridSpec is one world spec of the grid: a population, a loss level
// and a pathology. Its pool serves every shard count and reboot level of
// that spec.
type gridSpec struct {
	label   string
	seed    int64
	devices []scenario.DeviceSpec
	factory scenario.SizedWorldFactory
	pool    *scenario.WorldPool
}

// grid: the -grid cross-product of cmd/experiments over a flat
// conference floor, for gridPopulations populations, every row written
// through a CSV Emitter.
type grid struct {
	specs []gridSpec
	em    *metrics.Emitter
}

func newGrid(seed int64) workload {
	g := &grid{em: metrics.NewEmitter(io.Discard, metrics.EmitCSV)}
	for p := int64(0); p < gridPopulations; p++ {
		// Population p draws everything from seed*gridPopulations+p, so
		// distinct seeds never share a population.
		ps := seed*gridPopulations + p
		devices := scenario.Population(ps, gridDevices, scenario.DefaultMix())
		for li, loss := range gridLoss {
			base := testbed.Factory{Spec: scenario.ChaosSpec(ps, gridDevices, li, loss, 0)}.Build
			for _, pname := range gridPathologies {
				f := func(int) (*testbed.Testbed, error) { return base() }
				if pname != pathology.None {
					f = pathology.FactorySized(base, pname)
				}
				g.specs = append(g.specs, gridSpec{
					label:   fmt.Sprintf("pop%d/loss%.0f/%s", p, loss*100, pname),
					seed:    ps,
					devices: devices,
					factory: f,
					pool:    scenario.NewWorldPool(),
				})
			}
		}
	}
	return g
}

func (g *grid) setup(b *bench) error {
	for _, s := range g.specs {
		for _, k := range gridShards {
			if err := b.warmPool(s.pool, s.factory, shardSizes(s.seed, s.devices, k)); err != nil {
				return fmt.Errorf("building %s worlds: %w", s.label, err)
			}
		}
	}
	return nil
}

func (g *grid) pass(b *bench) error {
	for _, s := range g.specs {
		for _, k := range gridShards {
			for _, reboots := range gridReboots {
				cell := fmt.Sprintf("%s/k%d/reboot%d", s.label, k, reboots)
				emit := func(r scenario.Row) {
					// Emit errors are sticky; Flush below reports them.
					_ = g.em.Emit(metrics.RowRecord{
						Cell:        cell,
						Shard:       r.Shard,
						Index:       r.Index,
						Device:      r.Spec.Name,
						Profile:     r.Spec.Profile.Name,
						Class:       r.Class,
						Informed:    r.Informed,
						Internet:    r.Internet,
						UsedIPv6:    r.UsedIPv6,
						Churned:     r.Churned,
						Reconverged: r.Reconverged,
						ConvergeMS:  r.ConvergeTime.Milliseconds(),
					})
				}
				b.call(shardSizes(s.seed, s.devices, k), emit, func(sink scenario.RowSink) (*scenario.Report, error) {
					return scenario.RunShardedSized(b.sized(s.factory), s.devices, scenario.ShardOptions{
						Shards:  k,
						Workers: workers,
						Seed:    s.seed,
						Pool:    b.pool(s.pool),
						Run: scenario.RunOptions{
							RebootsPerDevice: reboots,
							ConvergeTimeout:  gridConvergeTimeout,
							Sink:             sink,
							DiscardDevices:   true,
						},
					})
				})
			}
		}
	}
	if err := g.em.Flush(); err != nil {
		return fmt.Errorf("emitting grid rows: %w", err)
	}
	return nil
}

func (g *grid) close() {
	for _, s := range g.specs {
		s.pool.Close()
	}
}

// traffic: paced CDN flows from trafficPopulations small conference-floor
// populations through DNS64 and NAT64/CLAT/NAT44, two shards each.
type traffic struct {
	pops []trafficPop
	// factory builds a full-size floor for every shard, whatever its
	// device count.
	factory scenario.SizedWorldFactory
	opts    *scenario.TrafficOptions
}

// trafficPop is one population of the traffic workload, with the pool
// its sharded runs draw worlds from.
type trafficPop struct {
	seed    int64
	devices []scenario.DeviceSpec
	pool    *scenario.WorldPool
}

func newTraffic(seed int64) workload {
	base := testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), trafficDevices)}.Build
	t := &traffic{
		factory: func(int) (*testbed.Testbed, error) { return base() },
		opts: &scenario.TrafficOptions{
			FlowsPerDevice: 8,
			FlowBytes:      12 << 10,
			Pace:           time.Millisecond,
			ChurnFlows:     2,
		},
	}
	for p := int64(0); p < trafficPopulations; p++ {
		// As in grid, distinct seeds never share a population.
		ps := seed*trafficPopulations + p
		t.pops = append(t.pops, trafficPop{
			seed:    ps,
			devices: scenario.Population(ps, trafficDevices, scenario.DefaultMix()),
			pool:    scenario.NewWorldPool(),
		})
	}
	return t
}

func (t *traffic) setup(b *bench) error {
	for _, p := range t.pops {
		if err := b.warmPool(p.pool, t.factory, shardSizes(p.seed, p.devices, trafficShards)); err != nil {
			return fmt.Errorf("building traffic worlds: %w", err)
		}
	}
	return nil
}

func (t *traffic) pass(b *bench) error {
	for _, p := range t.pops {
		b.call(shardSizes(p.seed, p.devices, trafficShards), nil, func(sink scenario.RowSink) (*scenario.Report, error) {
			return scenario.RunShardedSized(b.sized(t.factory), p.devices, scenario.ShardOptions{
				Shards:  trafficShards,
				Workers: workers,
				Seed:    p.seed,
				Pool:    b.pool(p.pool),
				Run:     scenario.RunOptions{Traffic: t.opts, Sink: sink, DiscardDevices: true},
			})
		})
	}
	return nil
}

func (t *traffic) close() {
	for _, p := range t.pops {
		p.pool.Close()
	}
}

// shardSizes is the device count of each shard a sharded run over
// devices makes.
func shardSizes(seed int64, devices []scenario.DeviceSpec, k int) []int {
	shards := scenario.ShardDevices(seed, devices, k)
	sizes := make([]int, len(shards))
	for i, s := range shards {
		sizes[i] = len(s.Devices)
	}
	return sizes
}
