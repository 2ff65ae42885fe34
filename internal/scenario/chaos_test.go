package scenario

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/testbed"
)

// TestChaosShardedMatchesSerial is the chaos shard-equality property
// test: for seeds 1..5 and K ∈ {2, 8}, an impaired, churned population
// produces the same merged report sharded as it does serially. The
// per-client impairment streams are seeded from client names and churn
// is per-device trials, so neither depends on which world a device
// lands in.
func TestChaosShardedMatchesSerial(t *testing.T) {
	const n = 16
	opt := RunOptions{RebootsPerDevice: 1, ConvergeTimeout: 30 * time.Second}
	for seed := int64(1); seed <= 5; seed++ {
		devices := Population(seed, n, DefaultMix())
		spec := ChaosSpec(seed, n, 0, 0.10, 0)
		fac := testbed.Factory{Spec: spec}

		world, err := fac.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		serial := RunWith(world, devices, opt)
		world.Close()

		if len(serial.Convergence) == 0 {
			t.Fatalf("seed %d: churned run produced no convergence data", seed)
		}

		for _, k := range []int{2, 8} {
			t.Run(fmt.Sprintf("seed%d/k%d", seed, k), func(t *testing.T) {
				sharded, err := RunShardedSized(sized(fac), devices, ShardOptions{
					Shards: k, Seed: seed, Run: opt,
				})
				if err != nil {
					t.Fatal(err)
				}
				assertReportsMatch(t, serial, sharded)
			})
		}
	}
}

// TestChaosZeroImpairmentIsLegacy pins the acceptance criterion that a
// chaos-capable engine with every knob off reproduces the classic Run
// byte for byte: same topology, same population, same report.
func TestChaosZeroImpairmentIsLegacy(t *testing.T) {
	const n = 12
	devices := Population(3, n, DefaultMix())
	fac := testbed.Factory{Spec: testbed.ScaleTopology(testbed.DefaultOptions(), n)}

	w1, err := fac.Build()
	if err != nil {
		t.Fatal(err)
	}
	legacy := Run(w1, devices)
	w1.Close()

	w2, err := fac.Build()
	if err != nil {
		t.Fatal(err)
	}
	chaosOff := RunWith(w2, devices, RunOptions{})
	w2.Close()

	assertReportsMatch(t, legacy, chaosOff)
	if legacy.HealthyQueries != chaosOff.HealthyQueries {
		t.Errorf("HealthyQueries: legacy=%d chaos-off=%d",
			legacy.HealthyQueries, chaosOff.HealthyQueries)
	}
	if chaosOff.Convergence != nil {
		t.Error("zero-churn run grew a Convergence map")
	}
}
