package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/pathology"
)

// hostTimeRE scrubs the wall-clock fields of the scale and fabric
// experiments (wall= and speedup=), the only host-dependent text in
// their output.
var hostTimeRE = regexp.MustCompile(`(wall|speedup)=\S+`)

// TestExperimentGoldens pins, byte for byte apart from hostTimeRE, the
// report of every experiment and the fingerprint every -pathology=<name>
// prints, against testdata/<id>.golden and testdata/pathology-<name>.golden.
// Rewrite them with: go test ./cmd/experiments -run Golden -update
func TestExperimentGoldens(t *testing.T) {
	type golden struct {
		name string
		args []string
	}
	var cases []golden
	for _, e := range exps {
		cases = append(cases, golden{e.id, []string{e.id}})
	}
	for _, name := range pathology.Names() {
		cases = append(cases, golden{"pathology-" + name, []string{"-pathology=" + name}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			got := hostTimeRE.ReplaceAllString(out.String(), "$1=HOST")
			path := "testdata/" + c.name + ".golden"
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(g) && i < len(w); i++ {
				if g[i] != w[i] {
					t.Fatalf("%s: line %d differs:\n got: %s\nwant: %s\n(rerun with -update if the change is intended)",
						path, i+1, g[i], w[i])
				}
			}
			t.Fatalf("%s: output has %d lines, the golden %d", path, len(g), len(w))
		})
	}
}
