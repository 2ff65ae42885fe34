package scenario

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netsim"
	"repro/internal/testbed"
)

// fabricSpec builds the property-test topology: 8 access switches × 4
// registered clients, impaired links seeded from the scenario seed.
func fabricSpec(seed int64) testbed.Topology {
	spec := testbed.FabricTopology(testbed.DefaultOptions(), 8, 4)
	spec.Impair = netsim.Impairment{Loss: 0.10}
	spec.ChaosSeed = uint64(seed)
	return spec
}

// TestRunFabricSerialEqualsSubtreeSharded is the fabric shard-equality
// property: for seeds 1..5, a serial run over the full fabric and a
// run partitioned into K ∈ {2, 8} subtree shards — each shard its own
// world holding a contiguous group of access switches — produce the
// same report, device for device, under 10% link loss. Domain state is
// a pure function of (seed, domain): SubtreeTopology keeps global
// Domain values, so every subtree world draws the same per-domain
// devices, leases from the same sub-pools and impairs each client by
// the same name-derived stream as the full world.
func TestRunFabricSerialEqualsSubtreeSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric shard-equality grid is slow")
	}
	for seed := int64(1); seed <= 5; seed++ {
		spec := fabricSpec(seed)
		opt := FabricOptions{Seed: seed, ActorsPerDomain: 2}
		serial, err := RunFabric(spec, opt)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		for _, k := range []int{2, 8} {
			shOpt := opt
			shOpt.Shards = k
			sharded, err := RunFabric(spec, shOpt)
			if err != nil {
				t.Fatalf("seed %d K=%d: %v", seed, k, err)
			}
			t.Logf("seed %d K=%d: joined=%d informed=%d internet=%d",
				seed, k, sharded.Joined, sharded.Informed, sharded.InternetOK)
			assertReportsMatch(t, serial, sharded)
			if len(sharded.Shards) != k {
				t.Errorf("seed %d K=%d: %d shard infos", seed, k, len(sharded.Shards))
			}
		}
	}
}

// TestRunFabricChurnEquality extends the contract to reboot churn: a
// per-device reboot trial on a subtree-sharded fabric run must
// aggregate to the serial run's report, convergence tallies included.
func TestRunFabricChurnEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric churn equality is slow")
	}
	spec := testbed.FabricTopology(testbed.DefaultOptions(), 4, 4)
	spec.Impair = netsim.Impairment{Loss: 0.05}
	spec.ChaosSeed = 7
	opt := FabricOptions{Seed: 7, ActorsPerDomain: 2, Run: RunOptions{RebootsPerDevice: 1}}

	serial, err := RunFabric(spec, opt)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	shOpt := opt
	shOpt.Shards = 2
	sharded, err := RunFabric(spec, shOpt)
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	assertReportsMatch(t, serial, sharded)
}

// TestRunFabricSerialSmoke pins the serial fabric engine's basic
// behavior on an unimpaired world: every acting device joins, parked
// rows stay parked, and the informed + internet split covers the
// population the same way a flat run does.
func TestRunFabricSerialSmoke(t *testing.T) {
	spec := testbed.FabricTopology(testbed.DefaultOptions(), 3, 4)
	rep, err := RunFabric(spec, FabricOptions{Seed: 42, ActorsPerDomain: 2})
	if err != nil {
		t.Fatalf("RunFabric: %v", err)
	}
	if rep.Joined != 6 {
		t.Fatalf("Joined = %d, want 6", rep.Joined)
	}
	if len(rep.Devices) != 6 {
		t.Fatalf("Devices = %d, want 6", len(rep.Devices))
	}
	for _, dr := range rep.Devices {
		if !dr.Informed && !dr.Internet && dr.Class == "" {
			t.Errorf("device %s: no outcome at all", dr.Spec.Name)
		}
	}
	if rep.Informed+rep.InternetOK == 0 {
		t.Error("no device reached any outcome")
	}
}

// TestRunFabricRejectsFlatTopology pins the gating error.
func TestRunFabricRejectsFlatTopology(t *testing.T) {
	if _, err := RunFabric(testbed.DefaultTopology(testbed.DefaultOptions()), FabricOptions{}); err == nil {
		t.Fatal("RunFabric accepted a flat topology")
	}
}

// TestReseededFabricDrawMatchesPopulation pins the fabric run's one
// reseeded RNG: drawing each domain's actors from a shared rng,
// reseeded per domain in an order unrelated to the seeds, gives exactly
// Population's draw for that domain's derived seed.
func TestReseededFabricDrawMatchesPopulation(t *testing.T) {
	mix := DefaultMix()
	rng := rand.New(rand.NewSource(99))
	for _, seed := range []int64{1, 7, 42, -3} {
		for _, domain := range []int{0, 1, 5, 999, 3} {
			as := testbed.AccessSwitchSpec{Domain: domain, Clients: 16}
			for _, actors := range []int{1, 5, 0} {
				got := fabricDevices(rng, seed, as, actors, mix)
				want := Population(deriveSeed(seed, domain), actorsOf(actors, as), mix)
				if len(got) != len(want) {
					t.Fatalf("seed %d domain %d actors %d: %d devices, want %d", seed, domain, actors, len(got), len(want))
				}
				for i := range want {
					name := fmt.Sprintf("d%03d-%s", domain, want[i].Name)
					if got[i].Name != name || got[i].Profile.Name != want[i].Profile.Name || got[i].EcholinkOnly != want[i].EcholinkOnly {
						t.Errorf("seed %d domain %d device %d: %s/%s, want %s/%s",
							seed, domain, i, got[i].Name, got[i].Profile.Name, name, want[i].Profile.Name)
					}
				}
			}
		}
	}
}
