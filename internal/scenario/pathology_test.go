package scenario

import (
	"fmt"
	"testing"

	"repro/internal/pathology"
	"repro/internal/testbed"
)

// TestPathologyShardedMatchesSerial is the pathology shard-equality
// property test: for seeds 1..5 and K ∈ {2, 8}, a population run under
// an active pathology produces the same merged report sharded as it
// does serially. Pathologies are stateless world-level mutations (every
// shard world gets an identical install), so a device's outcome stays a
// pure function of its spec — the same contract the chaos and fabric
// lanes pin. The pathology rotates with the seed so every failure mode
// gets sharded coverage.
func TestPathologyShardedMatchesSerial(t *testing.T) {
	const n = 12
	names := pathology.Names()[1:] // skip "none": the baseline is TestChaosZeroImpairmentIsLegacy's job
	for seed := int64(1); seed <= 5; seed++ {
		name := names[int(seed-1)%len(names)]
		devices := Population(seed, n, DefaultMix())
		fac := pathology.FactorySized(testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}.Build, name)

		world, err := fac(n)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		serial := Run(world, devices)
		world.Close()

		for _, k := range []int{2, 8} {
			t.Run(fmt.Sprintf("seed%d/k%d/%s", seed, k, name), func(t *testing.T) {
				sharded, err := RunShardedSized(fac, devices, ShardOptions{Shards: k, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				assertReportsMatch(t, serial, sharded)
			})
		}
	}
}
