package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// update rewrites the testdata goldens instead of comparing against
// them: go test ./cmd/testbedsim -update
var update = flag.Bool("update", false, "rewrite testdata goldens")

// TestTestbedsimGoldens pins, byte for byte, what each variant prints
// against testdata/<name>.golden. The output carries no host-time
// field, so nothing is scrubbed.
func TestTestbedsimGoldens(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"poison-wildcard", []string{"-poison", "wildcard"}},
		{"poison-rpz", []string{"-poison", "rpz"}},
		{"poison-off", []string{"-poison", "off"}},
		{"events", []string{"-events"}},
		{"pcap-12", []string{"-pcap", "12"}},
		{"churn-2", []string{"-churn", "2"}},
		{"loss-0.1", []string{"-loss", "0.1"}},
		{"fabric-4", []string{"-fabric", "4"}},
		{"fabric-16", []string{"-fabric", "16"}},
		{"no-option108-restrict-v4", []string{"-no-option108", "-restrict-v4"}},
		{"no-snoop-no-switch-ra", []string{"-no-snoop", "-no-switch-ra"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			got := out.String()
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

// TestRunRejectsBadArguments checks that the former exit paths come
// back as errors instead of ending the process.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-poison", "bogus"},
		{"-redirect", "not-an-address"},
		{"-fabric", "2", "-clients-per", "1"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) = nil error, want one", args)
		}
	}
}
