package main

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// sampleRun is a two-shard run's report and rows.
func sampleRun() (*scenario.Report, []scenario.Row) {
	devices := scenario.Population(7, 12, scenario.DefaultMix())
	rep := &scenario.Report{
		Joined:     len(devices),
		InternetOK: 9,
		Informed:   2,
		Classes:    map[metrics.Class]int{metrics.ClassV6Only: 8, metrics.ClassDual: 4},
		Profiles:   map[string]scenario.ProfileCount{"iOS": {Devices: 5, InternetOK: 5}},
		Traffic:    &scenario.TrafficReport{Flows: scenario.FlowStats{Opened: 10, Completed: 8, Aborted: 2}},
	}
	var rows []scenario.Row
	for i, d := range devices {
		shard, index := 0, i
		if i >= 6 {
			shard, index = 1, i-6
		}
		rows = append(rows, scenario.Row{Shard: shard, Index: index, DeviceResult: scenario.DeviceResult{
			Spec:         d,
			Class:        metrics.ClassV6Only,
			Internet:     i%3 != 0,
			ConvergeTime: time.Duration(i) * time.Millisecond,
		}})
	}
	return rep, rows
}

func entries(rows []scenario.Row) []rowEntry {
	out := make([]rowEntry, len(rows))
	for i, r := range rows {
		out[i] = newRowEntry(r)
	}
	return out
}

// TestDigestIgnoresRowArrivalOrder: two shard workers interleave their
// rows arbitrarily, so any arrival order must hash alike.
func TestDigestIgnoresRowArrivalOrder(t *testing.T) {
	rep, rows := sampleRun()
	want := digest(rep, entries(rows))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		shuffled := append([]scenario.Row(nil), rows...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		if got := digest(rep, entries(shuffled)); got != want {
			t.Fatalf("shuffle %d: digest %x, want %x", i, got, want)
		}
	}
}

func TestDigestSeesEveryChange(t *testing.T) {
	rep, rows := sampleRun()
	base := digest(rep, entries(rows))

	changed := append([]scenario.Row(nil), rows...)
	changed[3].Informed = true
	if digest(rep, entries(changed)) == base {
		t.Error("flipping one row's Informed left the digest unchanged")
	}

	swapped := append([]scenario.Row(nil), rows...)
	swapped[0].Spec, swapped[1].Spec = swapped[1].Spec, swapped[0].Spec
	if digest(rep, entries(swapped)) == base {
		t.Error("swapping two rows' devices left the digest unchanged")
	}

	rep2 := *rep
	rep2.Traffic = &scenario.TrafficReport{Flows: scenario.FlowStats{Opened: 10, Completed: 9, Aborted: 1}}
	if digest(&rep2, entries(rows)) == base {
		t.Error("changing the traffic aggregate left the digest unchanged")
	}

	rep3 := *rep
	rep3.Classes = map[metrics.Class]int{metrics.ClassV6Only: 7, metrics.ClassDual: 5}
	if digest(&rep3, entries(rows)) == base {
		t.Error("changing the class tally left the digest unchanged")
	}
}

func TestCombineIsOrdered(t *testing.T) {
	if combine([]uint64{1, 2}) == combine([]uint64{2, 1}) {
		t.Error("combine must depend on call order")
	}
}
