package scenario

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/hoststack"
	"repro/internal/testbed"
)

// This file is the fabric execution engine. On a hierarchical topology
// (testbed.FabricTopology) a shard is no longer an arbitrary slice of
// the device list but a subtree of the fabric: a contiguous group of
// access switches, rebuilt as its own world with testbed.SubtreeTopology
// so every kept switch retains its global Domain — and with it its DHCP
// sub-pools, its device names and its profile stream. Per-domain state
// is therefore a pure function of (seed, domain), which is what makes
// the serial run and any subtree partition produce identical reports,
// impairment included; MergeReports folds the per-subtree reports with
// the same associative merge the flat engine uses.

// FabricOptions parameterizes RunFabric.
type FabricOptions struct {
	// Seed feeds each domain's profile stream through deriveSeed(Seed,
	// Domain), so a domain draws the same devices in every world that
	// contains it.
	Seed int64
	// ActorsPerDomain is how many of each access switch's registered
	// clients actually run the workload (<= 0 or more than the switch
	// has registered: all of them). Registered-but-idle rows stay parked
	// ~31-byte table entries, which is how million-client worlds fit in
	// one process while only a sample acts.
	ActorsPerDomain int
	// Shards is how many subtree worlds the access switches split
	// across (default 1: one serial world).
	Shards int
	// Run carries the per-device chaos options into every world.
	// Run.Sink, when set, receives every subtree's rows through one
	// serialized sink, stamped with the subtree shard index.
	Run RunOptions
	// Pool, when non-nil, acquires subtree worlds from the world-reuse
	// pool (keyed by subtree index; a serial run is subtree 0) instead
	// of building fresh; repeated fabric runs over the same topology
	// amortize construction through the testbed Checkpoint/Reset
	// lifecycle.
	Pool *WorldPool
}

// fabricDevices draws access switch as's acting population: actors
// devices from the mix (<= 0 or more than the switch has registered:
// all of them), named d<domain>-dev<i>-<profile>. It reseeds rng with
// deriveSeed(seed, as.Domain) first, so the draw depends only on (seed,
// as.Domain), never on which world the switch is built into, and equals
// Population's for that seed.
func fabricDevices(rng *rand.Rand, seed int64, as testbed.AccessSwitchSpec, actors int, mix []MixEntry) []DeviceSpec {
	rng.Seed(deriveSeed(seed, as.Domain))
	devs := population(rng, actorsOf(actors, as), mix)
	for i := range devs {
		devs[i].Name = fmt.Sprintf("d%03d-%s", as.Domain, devs[i].Name)
	}
	return devs
}

// actorsOf clamps a per-domain actor count to the switch's registered
// population.
func actorsOf(actors int, as testbed.AccessSwitchSpec) int {
	if actors <= 0 || actors > as.Clients {
		return as.Clients
	}
	return actors
}

// runFabricWorld runs the acting population (drawn from DefaultMix) of
// every access switch in tb's world, one device at a time: materialize
// the row, run the trial, park the row. Parking returns the device to
// its stateless row, so the world never holds more than one full client
// Host at once.
func runFabricWorld(tb *testbed.Testbed, seed int64, actors int, ro RunOptions) *Report {
	r := newTrialRunner(tb, ro)
	fb := tb.Fabric
	mix := DefaultMix()
	rng := rand.New(rand.NewSource(seed))
	for i, as := range tb.Spec.Fabric.Access {
		devs := fabricDevices(rng, seed, as, actors, mix)
		lo, _ := fb.Rows(i)
		for j, spec := range devs {
			row := lo + j
			r.runTrial(spec, func() *hoststack.Host {
				return fb.Materialize(row, spec.Name, spec.Profile)
			})
			fb.Park(row)
		}
	}
	return r.finish()
}

// RunFabric executes the acting population of a fabric topology,
// partitioned into opt.Shards contiguous access-switch subtrees (one
// subtree holding every switch by default), each rebuilt as an
// independent world and run by the same executor RunShardedSized uses.
// Concatenating the subtrees in index order walks the access switches
// exactly as the serial world does, and on the position-independent
// FabricTopology the merged report equals the serial run's exactly —
// the same contract RunShardedSized has on flat worlds, now with the
// partition following the fabric's own structure.
func RunFabric(full testbed.Topology, opt FabricOptions) (*Report, error) {
	if !full.Fabric.Enabled() {
		return nil, errors.New("scenario: RunFabric needs a fabric topology")
	}
	access := len(full.Fabric.Access)
	shards := min(max(opt.Shards, 1), access)
	worlds := make([]shardWorld, shards)
	for i := range worlds {
		lo, hi := i*access/shards, (i+1)*access/shards
		actors := 0
		for _, as := range full.Fabric.Access[lo:hi] {
			actors += actorsOf(opt.ActorsPerDomain, as)
		}
		worlds[i] = shardWorld{
			key:  i,
			info: ShardInfo{Index: i, Seed: deriveSeed(opt.Seed, i), Devices: actors},
			build: func() (*testbed.Testbed, error) {
				keep := make([]int, 0, hi-lo)
				for sw := lo; sw < hi; sw++ {
					keep = append(keep, sw)
				}
				return testbed.Build(testbed.SubtreeTopology(full, keep))
			},
			run: func(tb *testbed.Testbed, ro RunOptions) *Report {
				return runFabricWorld(tb, opt.Seed, opt.ActorsPerDomain, ro)
			},
		}
	}
	return runWorlds(worlds, 0, opt.Pool, opt.Run)
}
