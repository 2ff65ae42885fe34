package scenario_test

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// Shard a churned, impaired population across two worlds. The merged
// report's aggregates are byte-identical to a serial run's: shard seeds
// and per-client impairment streams derive from names, not positions.
func ExampleRunShardedSized() {
	const seed, n = 7, 8
	devices := scenario.Population(seed, n, scenario.DefaultMix())

	spec := testbed.ScaleTopology(testbed.DefaultOptions(), n)
	spec.Impair = netsim.Impairment{Loss: 0.10}
	spec.ChaosSeed = uint64(seed)

	build := func(int) (*testbed.Testbed, error) { return testbed.Build(spec) }
	rep, err := scenario.RunShardedSized(build, devices, scenario.ShardOptions{
		Shards: 2,
		Seed:   seed,
		Run: scenario.RunOptions{
			RebootsPerDevice: 1,
			ConvergeTimeout:  30 * time.Second,
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	probed, reconverged := 0, 0
	for _, cc := range rep.Convergence {
		probed += cc.Devices
		reconverged += cc.Reconverged
	}
	fmt.Printf("shards=%d joined=%d internet=%d reconverged=%d/%d\n",
		len(rep.Shards), rep.Joined, rep.InternetOK, reconverged, probed)
	// Output: shards=2 joined=8 internet=7 reconverged=7/7
}
