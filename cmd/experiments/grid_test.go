package main

import (
	"encoding/csv"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// writeGridConfig drops an experiments.json into a temp dir and returns
// both paths.
func writeGridConfig(t *testing.T, cfg string) (cfgPath, outPath string) {
	t.Helper()
	dir := t.TempDir()
	outPath = filepath.Join(dir, "rows.csv")
	cfgPath = filepath.Join(dir, "experiments.json")
	cfg = strings.ReplaceAll(cfg, "OUT", strings.ReplaceAll(outPath, `\`, `\\`))
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	return cfgPath, outPath
}

// TestGridRunnerStreamsRows runs a small grid — two shard counts, a
// lossy level, a pathology cell, two repeats — and checks the streamed
// CSV: one row per device per run, identical rows across repeats
// (pooled worlds must not leak state), and a parseable schema.
func TestGridRunnerStreamsRows(t *testing.T) {
	const n = 8
	cfgPath, outPath := writeGridConfig(t, `{
		"seed": 1,
		"populations": [8],
		"shards": [1, 2],
		"loss_levels": [0, 0.10],
		"reboot_levels": [0],
		"pathologies": ["none", "dns64-flapping"],
		"repeats": 2,
		"format": "csv",
		"output": "OUT"
	}`)
	if err := runGrid(cfgPath, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(string(raw))).ReadAll()
	if err != nil {
		t.Fatalf("grid CSV does not parse: %v", err)
	}
	// 1 population × 2 shard counts × 2 loss levels × 1 reboot level ×
	// 2 pathologies × 2 repeats = 16 runs of 8 devices, plus the header.
	const wantRows = 16 * n
	if len(recs) != wantRows+1 {
		t.Fatalf("got %d CSV records, want header + %d rows", len(recs), wantRows)
	}

	// Repeats of one cell must be row-identical apart from the repeat
	// column: pooled world reuse may not perturb any outcome.
	type key struct{ cell, shard, index string }
	byRepeat := map[int]map[key][]string{0: {}, 1: {}}
	for _, rec := range recs[1:] {
		rep := 0
		if rec[1] == "1" {
			rep = 1
		}
		byRepeat[rep][key{rec[0], rec[2], rec[3]}] = rec[4:]
	}
	if len(byRepeat[0]) != wantRows/2 || len(byRepeat[1]) != wantRows/2 {
		t.Fatalf("repeat partitions: %d and %d rows, want %d each",
			len(byRepeat[0]), len(byRepeat[1]), wantRows/2)
	}
	for k, r0 := range byRepeat[0] {
		r1, ok := byRepeat[1][k]
		if !ok {
			t.Fatalf("row %v present in repeat 0 only", k)
		}
		if strings.Join(r0, ",") != strings.Join(r1, ",") {
			t.Errorf("row %v differs across repeats:\n  r0=%v\n  r1=%v", k, r0, r1)
		}
	}

	// Spot-check the schema: serial cells stream shard 0 only, sharded
	// cells stream both shards.
	shards := map[string]map[string]bool{}
	for _, rec := range recs[1:] {
		if shards[rec[0]] == nil {
			shards[rec[0]] = map[string]bool{}
		}
		shards[rec[0]][rec[2]] = true
	}
	for cell, sh := range shards {
		want := 1
		if strings.Contains(cell, "/k2/") {
			want = 2
		}
		if len(sh) != want {
			t.Errorf("cell %s streamed from %d shards, want %d", cell, len(sh), want)
		}
	}
}

// TestGridRunnerDefaults pins the minimal config: `{}` is one classic
// serial 24-device cell, once.
func TestGridRunnerDefaults(t *testing.T) {
	cfgPath, outPath := writeGridConfig(t, `{"output": "OUT"}`)
	if err := runGrid(cfgPath, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 25 {
		t.Fatalf("default grid wrote %d lines, want header + 24 rows", len(lines))
	}
}

// TestGridRunnerRejectsBadConfig pins the error paths: missing file,
// invalid JSON, unknown format, unknown pathology.
func TestGridRunnerRejectsBadConfig(t *testing.T) {
	if err := runGrid(filepath.Join(t.TempDir(), "absent.json"), io.Discard, io.Discard); err == nil {
		t.Error("missing config accepted")
	}
	cfgPath, _ := writeGridConfig(t, `{not json`)
	if err := runGrid(cfgPath, io.Discard, io.Discard); err == nil {
		t.Error("malformed JSON accepted")
	}
	cfgPath, _ = writeGridConfig(t, `{"format": "xml", "output": "OUT"}`)
	if err := runGrid(cfgPath, io.Discard, io.Discard); err == nil {
		t.Error("unknown format accepted")
	}
	cfgPath, _ = writeGridConfig(t, `{"pathologies": ["no-such-mode"], "output": "OUT"}`)
	if err := runGrid(cfgPath, io.Discard, io.Discard); err == nil {
		t.Error("unknown pathology accepted")
	}
}

// update rewrites the testdata goldens instead of comparing against
// them: go test ./cmd/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata goldens")

// outputPathRE scrubs the row file's temporary path from the grid's
// closing summary line, the only host-dependent text in its output.
var outputPathRE = regexp.MustCompile(`-> \S+rows\.csv$`)

// TestGridGolden pins a pooled -grid run byte for byte: 2 shard counts
// × 2 loss levels × 2 reboot levels × 2 pathologies × 2 repeats = 32
// runs of 8 devices, every (loss, pathology) group reusing its pooled
// worlds through Checkpoint/Reset. Shard workers interleave rows, so
// the golden holds the CSV header, the 256 rows sorted by (cell,
// repeat, shard, index), and then the summary lines in print order.
func TestGridGolden(t *testing.T) {
	cfgPath, outPath := writeGridConfig(t, `{
		"seed": 1,
		"populations": [8],
		"shards": [1, 2],
		"loss_levels": [0, 0.1],
		"reboot_levels": [0, 1],
		"pathologies": ["none", "dns64-flapping"],
		"repeats": 2,
		"output": "OUT"
	}`)
	var summary strings.Builder
	if err := runGrid(cfgPath, &summary, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	header, rows := rows[0], rows[1:]
	sortKey := func(row string) (string, int, int, int) {
		f := strings.SplitN(row, ",", 5)
		rep, _ := strconv.Atoi(f[1])
		shard, _ := strconv.Atoi(f[2])
		idx, _ := strconv.Atoi(f[3])
		return f[0], rep, shard, idx
	}
	sort.Slice(rows, func(i, j int) bool {
		ci, ri, si, ii := sortKey(rows[i])
		cj, rj, sj, ij := sortKey(rows[j])
		switch {
		case ci != cj:
			return ci < cj
		case ri != rj:
			return ri < rj
		case si != sj:
			return si < sj
		}
		return ii < ij
	})
	var got strings.Builder
	got.WriteString(header + "\n")
	for _, r := range rows {
		got.WriteString(r + "\n")
	}
	for _, line := range strings.SplitAfter(summary.String(), "\n") {
		got.WriteString(outputPathRE.ReplaceAllString(strings.TrimSuffix(line, "\n"), "-> ROWS"))
		if strings.HasSuffix(line, "\n") {
			got.WriteString("\n")
		}
	}

	const golden = "testdata/grid.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("grid output differs from %s at line %d:\n got: %s\nwant: %s\n(rerun with -update if the change is intended)",
					golden, i+1, g[i], w[i])
			}
		}
		t.Fatalf("grid output has %d lines, %s has %d", len(g), golden, len(w))
	}
}
