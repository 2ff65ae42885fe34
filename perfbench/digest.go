package main

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// defaultSeed is the seed referenceDigests were recorded for.
const defaultSeed = 1

// referenceDigests pin each workload's warm-up pass (combine over its
// per-call digests) at the default seed. A change that alters any
// simulated outcome, aggregate or row changes these.
var referenceDigests = map[string]uint64{
	"million": 0xc3a64730bbac1210,
	"grid":    0xf761844b676d440b,
	"traffic": 0x10e50da705a3a7eb,
}

// fnv64 is FNV-1a over the fields written to it. It is hand-rolled so
// hashing a row in the timed loop allocates nothing.
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h *fnv64) byte(b byte) {
	*h = (*h ^ fnv64(b)) * 1099511628211
}

func (h *fnv64) int(v int64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fnv64) str(s string) {
	h.int(int64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *fnv64) bool(v bool) {
	if v {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

func (h *fnv64) flows(f scenario.FlowStats) {
	h.int(int64(f.Opened))
	h.int(int64(f.Completed))
	h.int(int64(f.Aborted))
	h.int(f.BytesUp)
	h.int(f.BytesDown)
}

// rowEntry is one streamed row reduced to its sort key and a hash of
// every field.
type rowEntry struct {
	shard, index int
	hash         uint64
}

func newRowEntry(r scenario.Row) rowEntry {
	h := newFNV()
	h.int(int64(r.Shard))
	h.int(int64(r.Index))
	h.str(r.Spec.Name)
	h.str(r.Spec.Profile.Name)
	h.bool(r.Spec.EcholinkOnly)
	h.str(string(r.Class))
	h.bool(r.Informed)
	h.bool(r.Internet)
	h.bool(r.UsedIPv6)
	h.bool(r.Churned)
	h.bool(r.Reconverged)
	h.int(int64(r.ConvergeTime))
	h.flows(r.Flows)
	return rowEntry{shard: r.Shard, index: r.Index, hash: uint64(h)}
}

// digest hashes a run's report aggregates together with its rows sorted
// by (Shard, Index), so the order in which concurrent shards deliver
// rows cannot change it. HealthyQueries is left out: it depends on
// which devices share a resolver cache, which the scenario engine
// documents as outside its determinism contract.
func digest(rep *scenario.Report, rows []rowEntry) uint64 {
	h := newFNV()
	for _, v := range []int{rep.Joined, rep.Informed, rep.InternetOK, rep.Overcount,
		rep.PoisonedQueries, rep.NAT44LogEntries, rep.NAT64Sessions} {
		h.int(int64(v))
	}
	for _, cls := range sortedClasses(rep.Classes) {
		h.str(string(cls))
		h.int(int64(rep.Classes[cls]))
	}
	for _, name := range sortedKeys(rep.Profiles) {
		pc := rep.Profiles[name]
		h.str(name)
		h.int(int64(pc.Devices))
		h.int(int64(pc.InternetOK))
	}
	for _, cls := range sortedClasses(rep.Convergence) {
		cc := rep.Convergence[cls]
		h.str(string(cls))
		h.int(int64(cc.Devices))
		h.int(int64(cc.Reconverged))
		h.int(int64(cc.MaxTime))
		h.int(int64(cc.TotalTime))
	}
	if t := rep.Traffic; t != nil {
		h.flows(t.Flows)
		for _, cls := range sortedClasses(t.PerClass) {
			h.str(string(cls))
			h.flows(t.PerClass[cls])
		}
		g := t.Gateway
		for _, v := range []uint64{g.NAT64PktsOut, g.NAT64PktsIn, g.NAT64BytesOut, g.NAT64BytesIn,
			g.NAT44Pkts, g.NAT44BytesOut, g.NAT44BytesIn, g.NAT64PortsExhausted} {
			h.int(int64(v))
		}
		for _, v := range []int{g.NAT64Sessions, g.NAT44Sessions, g.NAT44LogEntries} {
			h.int(int64(v))
		}
	}
	sorted := append([]rowEntry(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].shard != sorted[j].shard {
			return sorted[i].shard < sorted[j].shard
		}
		return sorted[i].index < sorted[j].index
	})
	for _, e := range sorted {
		h.int(int64(e.hash))
	}
	return uint64(h)
}

// combine folds a pass's per-call digests, in call order, into one.
func combine(digests []uint64) uint64 {
	h := newFNV()
	for _, d := range digests {
		h.int(int64(d))
	}
	return uint64(h)
}

func sortedClasses[V any](m map[metrics.Class]V) []metrics.Class {
	out := make([]metrics.Class, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
