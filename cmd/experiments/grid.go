package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/pathology"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// This file is the experiments.json grid runner: a declarative
// cross-product of population sizes × shard counts × chaos loss levels
// × reboot levels × pathologies, each cell repeated `repeats` times,
// every run streaming its per-device rows straight to CSV or JSONL
// through the scenario engine's RowSink (DiscardDevices on, so retained
// state stays O(1) in devices). Worlds are reused across a spec group's
// repeats, shard counts and reboot levels through a scenario.WorldPool
// — only the population size, loss level and pathology change the world
// itself, so everything inside one (n, loss, pathology) group rides the
// Checkpoint/Reset lifecycle instead of rebuilding.

// gridConfig mirrors the experiments.json schema. Zero-valued lists
// collapse to a single default level, so the minimal config `{}` runs
// one classic 24-device serial cell once.
type gridConfig struct {
	// Seed feeds every population draw and per-shard seed derivation.
	Seed int64 `json:"seed"`
	// Populations are the device counts to sweep (default [24]).
	Populations []int `json:"populations"`
	// Shards are the shard counts to sweep (default [1]).
	Shards []int `json:"shards"`
	// LossLevels are the link-loss fractions to sweep (default [0]);
	// non-zero levels build impaired worlds through scenario.ChaosSpec.
	LossLevels []float64 `json:"loss_levels"`
	// RebootLevels are the per-device gateway reboot counts (default [0]).
	RebootLevels []int `json:"reboot_levels"`
	// Pathologies are registry names to install per cell; "none" (or the
	// empty string) is the healthy control (default ["none"]).
	Pathologies []string `json:"pathologies"`
	// Repeats runs every cell this many times (default 1); repeats
	// reuse pooled worlds and must emit identical rows.
	Repeats int `json:"repeats"`
	// Format is "csv" (default) or "jsonl".
	Format string `json:"format"`
	// Output is the row stream's destination path; empty or "-" writes
	// rows to stdout (summaries then move to stderr).
	Output string `json:"output"`
}

// fill applies the documented defaults.
func (c *gridConfig) fill() {
	if len(c.Populations) == 0 {
		c.Populations = []int{24}
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1}
	}
	if len(c.LossLevels) == 0 {
		c.LossLevels = []float64{0}
	}
	if len(c.RebootLevels) == 0 {
		c.RebootLevels = []int{0}
	}
	if len(c.Pathologies) == 0 {
		c.Pathologies = []string{pathology.None}
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
}

// runGrid executes the grid described by the experiments.json at path.
// Streamed rows go to the configured output file, or to stdout when the
// config names none; one summary line per run goes to stdout, or to
// stderr when the rows took stdout.
func runGrid(path string, stdout, stderr io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var cfg gridConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	cfg.fill()
	format, err := metrics.ParseEmitFormat(cfg.Format)
	if err != nil {
		return err
	}

	rows, sum := stdout, stdout
	if cfg.Output != "" && cfg.Output != "-" {
		f, err := os.Create(cfg.Output)
		if err != nil {
			return err
		}
		defer f.Close()
		rows = f
	} else {
		sum = stderr
	}
	em := metrics.NewEmitter(rows, format)

	cells := 0
	// The world spec depends only on (n, loss, pathology); everything
	// inside one group reuses its pooled worlds across shard counts,
	// reboot levels and repeats.
	for _, n := range cfg.Populations {
		devices := scenario.Population(cfg.Seed, n, scenario.DefaultMix())
		for li, loss := range cfg.LossLevels {
			spec := scenario.ChaosSpec(cfg.Seed, n, li, loss, 0)
			for _, pname := range cfg.Pathologies {
				fac := pathology.FactorySized(testbed.Factory{Spec: spec}.Build, gridPathologyName(pname))
				pool := scenario.NewWorldPool()
				for _, k := range cfg.Shards {
					for _, reboots := range cfg.RebootLevels {
						cell := fmt.Sprintf("n%d/loss%.0f/%s/k%d/reboot%d",
							n, loss*100, gridPathologyName(pname), k, reboots)
						for rep := 0; rep < cfg.Repeats; rep++ {
							rep := rep
							sink := scenario.RowSinkFunc(func(r scenario.Row) {
								_ = em.Emit(metrics.RowRecord{
									Cell:        cell,
									Repeat:      rep,
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
							})
							report, err := scenario.RunShardedSized(fac, devices, scenario.ShardOptions{
								Shards: k,
								Seed:   cfg.Seed,
								Pool:   pool,
								Run: scenario.RunOptions{
									RebootsPerDevice: reboots,
									ConvergeTimeout:  30 * time.Second,
									Sink:             sink,
									DiscardDevices:   true,
								},
							})
							if err != nil {
								pool.Close()
								return fmt.Errorf("cell %s repeat %d: %w", cell, rep, err)
							}
							fmt.Fprintf(sum, "measured: %-36s repeat=%d joined=%-4d informed=%-3d internet=%-4d overcount=%d\n",
								cell, rep, report.Joined, report.Informed, report.InternetOK, report.Overcount)
							cells++
						}
					}
				}
				pool.Close()
			}
		}
	}
	if err := em.Flush(); err != nil {
		return fmt.Errorf("writing rows: %w", err)
	}
	dest := cfg.Output
	if dest == "" || dest == "-" {
		dest = "stdout"
	}
	fmt.Fprintf(sum, "grid: %d runs, %d rows -> %s\n", cells, em.Rows(), dest)
	return nil
}

// gridPathologyName normalizes the healthy control's cell label.
func gridPathologyName(pname string) string {
	if pname == "" {
		return pathology.None
	}
	return pname
}
