package scenario

import (
	"fmt"
	"strings"

	"repro/internal/pathology"
	"repro/internal/testbed"
)

// This file is the pathology sweep: one scenario run per registered
// DNS/NAT64/delegation failure mode (internal/pathology), all over the
// same deterministic population, folded into a pathology × client-
// profile degradation matrix. Like the chaos sweep, every rendered
// value is a counter, so the output is byte-reproducible and documented
// verbatim in EXPERIMENTS.md §bench6. Stateless pathologies are pure
// world mutations; stateful ones carry grid-aligned schedules and
// pro-rata capacity budgets — either way each cell may run sharded and
// still fold to the serial report exactly
// (TestPathologyShardedMatchesSerial and its stateful sibling).

// PathologyConfig parameterizes PathologySweep.
type PathologyConfig struct {
	// Seed draws the population.
	Seed int64
	// N is the population size per cell, drawn from DefaultMix.
	N int
	// Pathologies lists the registry names to sweep; nil means every
	// registered pathology in canonical order.
	Pathologies []string
	// Shards is passed through to RunShardedSized (default 1).
	Shards int
	// Sink, when non-nil, streams every cell's per-device rows as they
	// finish (cells run sequentially in registry order).
	Sink RowSink
	// DiscardDevices drops per-device retention in every cell's report;
	// the matrix renders from the folded Profiles aggregates alone.
	DiscardDevices bool
}

// PathologyCell is one sweep row: the pathology installed in every
// world of the cell, and the resulting aggregate report.
type PathologyCell struct {
	Pathology string
	Report    *Report
}

// PathologyMatrix is the outcome of a full pathology sweep — the
// degradation matrix over pathology × client profile.
type PathologyMatrix struct {
	N        int
	Seed     int64
	Profiles []string
	Cells    []PathologyCell
}

// PathologySpec returns the topology a sweep cell builds its worlds
// from. Exposed so tests and CLIs can reproduce a single cell exactly;
// the pathology itself is installed post-build by pathology.FactorySized.
func PathologySpec(n int) testbed.Topology {
	return testbed.ScaleTopology(testbed.DefaultOptions(), n)
}

// PathologySweep runs one cell per pathology over the same population
// and returns the degradation matrix. Every cell is deterministic for a
// given config, sharded or not.
func PathologySweep(cfg PathologyConfig) (*PathologyMatrix, error) {
	if cfg.N <= 0 {
		cfg.N = 24
	}
	mix := DefaultMix()
	names := cfg.Pathologies
	if names == nil {
		names = pathology.Names()
	}

	devices := Population(cfg.Seed, cfg.N, mix)
	m := &PathologyMatrix{N: cfg.N, Seed: cfg.Seed, Profiles: profileColumns(mix)}
	for _, name := range names {
		fac := pathology.FactorySized(testbed.Factory{Spec: PathologySpec(cfg.N)}.Build, name)
		rep, err := RunShardedSized(fac, devices, ShardOptions{
			Shards: cfg.Shards,
			Seed:   cfg.Seed,
			Run: RunOptions{
				Sink:           cfg.Sink,
				DiscardDevices: cfg.DiscardDevices,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: pathology cell %q: %w", name, err)
		}
		m.Cells = append(m.Cells, PathologyCell{Pathology: name, Report: rep})
	}
	return m, nil
}

// profileColumns returns the distinct profile names of a mix in first-
// appearance order — the matrix column order.
func profileColumns(mix []MixEntry) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range mix {
		if !seen[e.Profile.Name] {
			seen[e.Profile.Name] = true
			out = append(out, e.Profile.Name)
		}
	}
	return out
}

// profileAbbrev compresses a profile name into a ≤5-character column
// header.
func profileAbbrev(name string) string {
	switch name {
	case "iOS":
		return "iOS"
	case "Android":
		return "Andr"
	case "macOS":
		return "mac"
	case "Windows 10":
		return "W10"
	case "Windows 11":
		return "W11"
	case "Windows 11 (RFC 8925)":
		return "W11r"
	case "Linux":
		return "Lnx"
	case "Linux (IPv6-only)":
		return "v6Lnx"
	case "Nintendo Switch":
		return "NSw"
	case "Windows XP":
		return "XP"
	}
	s := strings.ReplaceAll(name, " ", "")
	if len(s) > 5 {
		s = s[:5]
	}
	return s
}

// String renders the pathology × profile degradation matrix. Each
// profile column is internet-ok/devices for that profile in the cell;
// every value is a counter, so the text is byte-reproducible.
func (m *PathologyMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pathology degradation matrix: n=%d devices per cell, seed %d (internet-ok/devices per profile)\n", m.N, m.Seed)
	fmt.Fprintf(&b, "%-26s %8s %9s", "pathology", "internet", "informed")
	for _, p := range m.Profiles {
		fmt.Fprintf(&b, " %6s", profileAbbrev(p))
	}
	b.WriteByte('\n')
	for _, c := range m.Cells {
		fmt.Fprintf(&b, "%-26s %8d %9d", c.Pathology, c.Report.InternetOK, c.Report.Informed)
		for _, p := range m.Profiles {
			// Profiles folds incrementally during the run, so the matrix
			// renders identically whether or not Devices was retained.
			pc := c.Report.Profiles[p]
			fmt.Fprintf(&b, " %6s", fmt.Sprintf("%d/%d", pc.InternetOK, pc.Devices))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
