package main

import (
	"strings"
	"testing"
)

// lint runs doclint over roots and returns its exit status and the
// findings it printed.
func lint(t *testing.T, roots ...string) (int, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(roots, &stdout, &stderr)
	if code != 0 && !strings.Contains(stderr.String(), "lack doc comments") {
		t.Errorf("exit %d without the summary line on stderr: %q", code, stderr.String())
	}
	return code, stdout.String()
}

// TestReportsEachKindOfFinding runs doclint over one fixture package
// per rule and checks that every rule fires on its fixture.
func TestReportsEachKindOfFinding(t *testing.T) {
	for _, tc := range []struct {
		dir  string
		want []string
	}{
		{"testdata/undocumented", []string{
			"value A has no doc comment",
			"value B has no doc comment",
			"type T has no doc comment",
			"method M has no doc comment",
			"func F has no doc comment",
		}},
		{"testdata/nopkgdoc", []string{"package nopkgdoc has no package comment"}},
		{"testdata/pathology", []string{
			"Pathology literal lacks the Source field",
			"Pathology literal lacks the ScheduleDoc field",
		}},
	} {
		code, out := lint(t, tc.dir)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1", tc.dir, code)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != len(tc.want) {
			t.Errorf("%s: %d findings, want %d:\n%s", tc.dir, len(lines), len(tc.want), out)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: no finding %q in:\n%s", tc.dir, w, out)
			}
		}
	}
}

// TestCleanPackagesPass checks that a fully documented package, and a
// package whose only undocumented identifiers sit in a _test.go file,
// both pass with no output.
func TestCleanPackagesPass(t *testing.T) {
	for _, dir := range []string{"testdata/clean", "testdata/testfiles"} {
		if code, out := lint(t, dir); code != 0 || out != "" {
			t.Errorf("%s: exit %d, findings %q; want 0 and none", dir, code, out)
		}
	}
}

// TestWalkSkipsTestdata checks that a ./... walk skips testdata, as the
// go tool does: the fixtures above fail on purpose, and this package's
// own source is documented.
func TestWalkSkipsTestdata(t *testing.T) {
	if code, out := lint(t, "./..."); code != 0 {
		t.Errorf("./... exit %d with findings:\n%s", code, out)
	}
}
