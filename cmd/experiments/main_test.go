package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsagePinnedInREADME keeps the README's generated flags reference
// byte-identical to what the binary actually prints for -help. The
// experiment table and the pathology registry both feed usageText, so
// adding an experiment or a pathology without regenerating the README
// block fails here instead of drifting silently.
func TestUsagePinnedInREADME(t *testing.T) {
	const (
		begin = "<!-- experiments-flags:begin -->"
		end   = "<!-- experiments-flags:end -->"
	)
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	i := strings.Index(readme, begin)
	j := strings.Index(readme, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README.md lacks the %s / %s block", begin, end)
	}
	block := strings.TrimSpace(readme[i+len(begin) : j])
	block = strings.TrimPrefix(block, "```")
	block = strings.TrimSuffix(block, "```")
	block = strings.TrimSpace(block)

	want := strings.TrimSpace(usageText())
	if block != want {
		t.Errorf("README experiments-flags block is stale.\n--- README ---\n%s\n--- binary -help ---\n%s\n"+
			"regenerate with: go run ./cmd/experiments -help", block, want)
	}
}

// TestMeasuredLinesInGoldens holds EXPERIMENTS.md to what the binary
// prints: every measured: line it quotes must appear verbatim (trailing
// blanks aside) in one of the testdata goldens, which
// TestExperimentGoldens and TestGridGolden pin to the real output.
func TestMeasuredLinesInGoldens(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	goldens, err := filepath.Glob("testdata/*.golden")
	if err != nil {
		t.Fatal(err)
	}
	printed := map[string]bool{}
	for _, path := range goldens {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			printed[strings.TrimRight(line, " ")] = true
		}
	}
	quoted := 0
	for i, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "measured:") {
			continue
		}
		quoted++
		if !printed[strings.TrimRight(line, " ")] {
			t.Errorf("EXPERIMENTS.md:%d is in no golden: %s", i+1, line)
		}
	}
	if quoted == 0 {
		t.Error("EXPERIMENTS.md quotes no measured: line")
	}
}

// TestUsageListsEveryExperiment guards the generator itself: every
// experiment id must appear in the reference, and the pathology flag
// must list every registered name.
func TestUsageListsEveryExperiment(t *testing.T) {
	u := usageText()
	for _, e := range exps {
		if !strings.Contains(u, "  "+e.id) {
			t.Errorf("usage text missing experiment %q", e.id)
		}
	}
	for _, name := range []string{"none", "nat64-checksum-corruption", "delegation-no-aaaa"} {
		if !strings.Contains(u, name) {
			t.Errorf("usage text missing pathology name %q", name)
		}
	}
}
