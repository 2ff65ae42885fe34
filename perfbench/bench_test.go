package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 5000},
		{20, 5000},
		{99, 5000},
		{100, 9000},
		{999, 9000},
		{1000, 9900},
		{40000, 9900},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestTailPercentileRule checks the rule itself for every sample count:
// the reported percentile leaves at least minBeyond samples beyond it,
// and no higher rung of the ladder does.
func TestTailPercentileRule(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		p := tailPercentile(n)
		if n-rank(n, p) < minBeyond && p != tailLadder[len(tailLadder)-1] {
			t.Fatalf("n=%d: p%d leaves %d samples beyond it", n, p, n-rank(n, p))
		}
		for _, higher := range tailLadder {
			if higher > p && n-rank(n, higher) >= minBeyond {
				t.Fatalf("n=%d: reported p%d but p%d also leaves %d beyond", n, p, higher, n-rank(n, higher))
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p    int
		want float64
	}{{5000, 50}, {9000, 90}, {9900, 99}, {1, 1}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %d) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 9900); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}
