package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// This file is the chaos sweep: a loss × churn grid of scenario runs
// over impaired worlds. Each cell builds a ScaleTopology world with
// per-client link impairment (seeded from the cell so it replays
// identically), runs the standard population with per-device
// reboot-churn trials, and records the aggregate report. The grid folds
// into a DegradationMatrix whose String rendering carries only virtual
// times and counters — no wall-clock values — so the exact text is
// reproducible and documented verbatim in EXPERIMENTS.md §chaos.

// ChaosConfig parameterizes ChaosSweep.
type ChaosConfig struct {
	// Seed draws the population and derives every per-cell chaos seed.
	Seed int64
	// N is the population size per cell, drawn from DefaultMix.
	N int
	// LossLevels and RebootLevels span the grid (defaults 0/10/30% and
	// 0/1/2 reboots).
	LossLevels   []float64
	RebootLevels []int
	// Shards is passed through to RunShardedSized (default 1).
	Shards int
	// ConvergeTimeout bounds per-device re-convergence probing.
	ConvergeTimeout time.Duration
	// Sink, when non-nil, streams every cell's per-device rows as they
	// finish (cells run sequentially in row-major grid order, so rows
	// group by cell; within a cell, shards interleave).
	Sink RowSink
	// DiscardDevices drops per-device retention in every cell's report;
	// the matrix renders from the folded aggregates alone.
	DiscardDevices bool
}

// ChaosCell is one grid point: the impairment and churn applied, and
// the resulting report.
type ChaosCell struct {
	Loss    float64
	Reboots int
	Report  *Report
}

// DegradationMatrix is the outcome of a full chaos sweep.
type DegradationMatrix struct {
	N     int
	Seed  int64
	Cells []ChaosCell
}

// ChaosSpec returns the topology one sweep cell builds its worlds from:
// the scale topology with the cell's impairment attached and a chaos
// seed derived from (seed, cell index). Exposed so tests and CLIs can
// reproduce a single cell exactly.
func ChaosSpec(seed int64, n int, cell int, loss float64, jitter time.Duration) testbed.Topology {
	spec := testbed.ScaleTopology(testbed.DefaultOptions(), n)
	if loss > 0 {
		spec.Impair = netsim.Impairment{Loss: loss, Jitter: jitter}
		spec.ChaosSeed = uint64(deriveSeed(seed, cell))
	}
	return spec
}

// ChaosSweep runs the loss × churn grid and returns the degradation
// matrix. Cell order is row-major over (loss, reboots), and every cell
// is deterministic for a given config.
func ChaosSweep(cfg ChaosConfig) (*DegradationMatrix, error) {
	if cfg.N <= 0 {
		cfg.N = 24
	}
	losses := cfg.LossLevels
	if losses == nil {
		losses = []float64{0, 0.10, 0.30}
	}
	reboots := cfg.RebootLevels
	if reboots == nil {
		reboots = []int{0, 1, 2}
	}

	devices := Population(cfg.Seed, cfg.N, DefaultMix())
	m := &DegradationMatrix{N: cfg.N, Seed: cfg.Seed}
	cell := 0
	for _, loss := range losses {
		for _, nReboots := range reboots {
			spec := ChaosSpec(cfg.Seed, cfg.N, cell, loss, 0)
			build := func(int) (*testbed.Testbed, error) { return testbed.Build(spec) }
			rep, err := RunShardedSized(build, devices, ShardOptions{
				Shards: cfg.Shards,
				Seed:   cfg.Seed,
				Run: RunOptions{
					RebootsPerDevice: nReboots,
					ConvergeTimeout:  cfg.ConvergeTimeout,
					Sink:             cfg.Sink,
					DiscardDevices:   cfg.DiscardDevices,
				},
			})
			if err != nil {
				return nil, fmt.Errorf("scenario: chaos cell loss=%.2f reboots=%d: %w", loss, nReboots, err)
			}
			m.Cells = append(m.Cells, ChaosCell{Loss: loss, Reboots: nReboots, Report: rep})
			cell++
		}
	}
	return m, nil
}

// convergenceTotals folds the per-class convergence map into sweep-wide
// counters (devices probed, devices reconverged, worst time).
func convergenceTotals(rep *Report) (probed, reconverged int, worst time.Duration) {
	for _, cc := range rep.Convergence {
		probed += cc.Devices
		reconverged += cc.Reconverged
		if cc.MaxTime > worst {
			worst = cc.MaxTime
		}
	}
	return probed, reconverged, worst
}

// String renders the degradation matrix as the fixed-width table the
// chaos experiment prints. Every value is a counter or a virtual-clock
// duration, so the text is byte-reproducible for a given config.
func (m *DegradationMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "degradation matrix: n=%d devices per cell, seed %d\n", m.N, m.Seed)
	fmt.Fprintf(&b, "%-6s %8s %10s %10s %12s %14s\n",
		"loss", "reboots", "internet", "informed", "reconverged", "worst-converge")
	for _, c := range m.Cells {
		probed, recon, worst := convergenceTotals(c.Report)
		conv, worstStr := "-", "-"
		if c.Reboots > 0 {
			conv = fmt.Sprintf("%d/%d", recon, probed)
			worstStr = worst.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%5.0f%% %8d %10d %10d %12s %14s\n",
			c.Loss*100, c.Reboots, c.Report.InternetOK, c.Report.Informed, conv, worstStr)
	}
	return b.String()
}

// ClassBreakdown renders the per-class convergence detail for the
// churned cells — the second half of the chaos experiment's output.
func (m *DegradationMatrix) ClassBreakdown() string {
	var b strings.Builder
	for _, c := range m.Cells {
		if c.Reboots == 0 || len(c.Report.Convergence) == 0 {
			continue
		}
		fmt.Fprintf(&b, "loss=%.0f%% reboots=%d:\n", c.Loss*100, c.Reboots)
		classes := make([]string, 0, len(c.Report.Convergence))
		for cls := range c.Report.Convergence {
			classes = append(classes, string(cls))
		}
		sort.Strings(classes)
		for _, cls := range classes {
			cc := c.Report.Convergence[metrics.Class(cls)]
			mean := time.Duration(0)
			if cc.Reconverged > 0 {
				mean = cc.TotalTime / time.Duration(cc.Reconverged)
			}
			fmt.Fprintf(&b, "  %-10s %2d/%2d reconverged, mean %v, worst %v\n",
				cls, cc.Reconverged, cc.Devices,
				mean.Round(time.Millisecond), cc.MaxTime.Round(time.Millisecond))
		}
	}
	return b.String()
}
