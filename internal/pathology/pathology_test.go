package pathology

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/testbed"
)

// fingerprintCache computes every registered fingerprint once per test
// binary — Compute builds six worlds per pathology, so the uniqueness,
// pinning and decoder tests share one measurement pass.
var (
	fpOnce sync.Once
	fpAll  map[string]Fingerprint
	fpErr  error
)

func fingerprints(t *testing.T) map[string]Fingerprint {
	t.Helper()
	fpOnce.Do(func() { fpAll, fpErr = ComputeAll() })
	if fpErr != nil {
		t.Fatalf("ComputeAll: %v", fpErr)
	}
	return fpAll
}

func TestRegisterValidation(t *testing.T) {
	install := func(*testbed.Testbed) error { return nil }
	cases := []struct {
		name string
		p    Pathology
		want string
	}{
		{"empty name", Pathology{Source: "s", Mechanism: "m", Install: install}, "empty name"},
		{"missing source", Pathology{Name: "x-test", Mechanism: "m", Install: install}, "required"},
		{"missing mechanism", Pathology{Name: "x-test", Source: "s", Install: install}, "required"},
		{"nil install", Pathology{Name: "x-test", Source: "s", Mechanism: "m"}, "nil Install"},
		{"duplicate", Pathology{Name: None, Source: "s", Mechanism: "m", Install: install}, "already registered"},
	}
	for _, tc := range cases {
		if err := Register(tc.p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestNamesCanonicalOrder(t *testing.T) {
	names := Names()
	if len(names) < 7 {
		t.Fatalf("registered pathologies = %d, want >= 7 (none + 6 failure modes)", len(names))
	}
	if names[0] != None {
		t.Fatalf("Names()[0] = %q, want %q first", names[0], None)
	}
	for i := 2; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted after none: %q >= %q", names[i-1], names[i])
		}
	}
	if got, want := len(registry), len(names); got != want {
		t.Errorf("registered pathologies = %d, Names() lists %d", got, want)
	}
}

func TestApplyUnknown(t *testing.T) {
	tb := testbed.New(testbed.DefaultOptions())
	defer tb.Close()
	if err := Apply(tb, "no-such-pathology"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("Apply(unknown) = %v, want unknown-name error", err)
	}
}

// TestPathologyFingerprintsUnique is the catalog's core contract: no
// two registered pathologies — the baseline included — share a 10-point
// score vector over the canonical client profiles. The table is
// whatever the registry holds when the test runs, so pathologies added
// later (including example registrations) are checked automatically.
func TestPathologyFingerprintsUnique(t *testing.T) {
	all := fingerprints(t)
	names := Names()
	for i, a := range names {
		for _, b := range names[i+1:] {
			if all[a].Points == all[b].Points {
				t.Errorf("pathologies %q and %q share score vector %v", a, b, all[a].String())
			}
		}
	}
}

// TestPathologyFingerprintsPinned pins the exact measured fingerprint
// of every built-in pathology — points and per-subtest outcome codes.
// A change here means client-visible behavior moved: update
// PATHOLOGIES.md alongside this table.
func TestPathologyFingerprintsPinned(t *testing.T) {
	want := map[string]Fingerprint{
		None: {
			Points: [6]int{10, 9, 9, 9, 2, 8},
			Codes:  [6]string{"N666N", "N6664", "N6664", "N6664", "xxxm4", "N666!"},
		},
		"delegation-no-aaaa": {
			Points: [6]int{2, 2, 2, 2, 2, 0},
			Codes:  [6]string{"!!!!N", "xxxm4", "xxxm4", "xxxm4", "xxxm4", "!!!!!"},
		},
		"dns-v4-interference": {
			Points: [6]int{10, 9, 2, 2, 2, 8},
			Codes:  [6]string{"N666N", "N6664", "xxxm4", "xxxm4", "xxxm4", "N666!"},
		},
		"dns-v6-interference": {
			Points: [6]int{4, 8, 9, 9, 2, 0},
			Codes:  [6]string{"N!N!N", "46464", "N6664", "N6664", "xxxm4", "!!!!!"},
		},
		"dns64-prefix-mismatch": {
			Points: [6]int{10, 9, 8, 8, 2, 6},
			Codes:  [6]string{"N666N", "46664", "x6664", "x6664", "xxxm4", "!666!"},
		},
		"nat64-checksum-corruption": {
			Points: [6]int{6, 9, 8, 8, 2, 6},
			Codes:  [6]string{"!666!", "46664", "x6664", "x6664", "xxxm4", "!666!"},
		},
		"nat64-mtu-blackhole": {
			Points: [6]int{8, 8, 8, 8, 2, 6},
			Codes:  [6]string{"N66!N", "N66!4", "N66m4", "N66m4", "xxxm4", "N66!!"},
		},
		// The stateful pathologies: each plain fingerprint samples the
		// grid-aligned probe instant with the failure active (flap
		// down-windows cover the aligned phase by construction).
		"nat64-port-exhaustion": {
			Points: [6]int{8, 9, 9, 9, 2, 8},
			Codes:  [6]string{"N666!", "N6664", "N6664", "N6664", "xxxm4", "N666!"},
		},
		"dns64-flapping": {
			Points: [6]int{10, 9, 8, 8, 2, 8},
			Codes:  [6]string{"N666N", "46664", "x6664", "x6664", "xxxm4", "N666!"},
		},
		"gateway-ra-outage": {
			Points: [6]int{0, 2, 2, 2, 2, 0},
			Codes:  [6]string{"!!!!!", "xxxm4", "xxxm4", "xxxm4", "xxxm4", "!!!!!"},
		},
	}
	all := fingerprints(t)
	for name, w := range want {
		got, ok := all[name]
		if !ok {
			t.Errorf("pathology %q not registered", name)
			continue
		}
		if got != w {
			t.Errorf("%s fingerprint drifted:\n got points=%v codes=%v\nwant points=%v codes=%v",
				name, got.String(), got.Codes, w.String(), w.Codes)
		}
	}
}

// TestDecoderRoundTrip proves the score-vector → pathology direction:
// every registered fingerprint decodes back to its own name, and a
// vector no pathology produces returns the named sentinel error.
func TestDecoderRoundTrip(t *testing.T) {
	d, err := NewDecoder()
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	all := fingerprints(t)
	for _, name := range Names() {
		got, err := d.Decode(all[name].Points)
		if err != nil || got != name {
			t.Errorf("Decode(%v) = %q, %v; want %q", all[name].String(), got, err, name)
		}
	}
	if name, err := d.Decode([6]int{1, 1, 1, 1, 1, 1}); !errors.Is(err, ErrUnknownVector) {
		t.Errorf("Decode(bogus) = %q, %v; want ErrUnknownVector", name, err)
	}
}

// TestDecodeUnknownVectorSentinel is the regression for the silent-miss
// hazard: an all-zero vector — what an operator measures when the probe
// suite itself failed — must return ErrUnknownVector, never decode to
// the "none" control (which would read as "network healthy").
func TestDecodeUnknownVectorSentinel(t *testing.T) {
	d, err := NewDecoder()
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	name, err := d.Decode([6]int{})
	if !errors.Is(err, ErrUnknownVector) {
		t.Fatalf("Decode(all-zero) = %q, %v; want ErrUnknownVector", name, err)
	}
	if name != "" {
		t.Fatalf("Decode(all-zero) name = %q, want empty", name)
	}
}

// TestInstallLeavesDistinctComponentMarks spot-checks that each install
// actually lands on the component it documents, via the counters the
// components expose.
func TestInstallLeavesDistinctComponentMarks(t *testing.T) {
	tb := testbed.New(testbed.DefaultOptions())
	defer tb.Close()
	if err := Apply(tb, "dns64-prefix-mismatch"); err != nil {
		t.Fatal(err)
	}
	if tb.Healthy64.Prefix != MismatchedPrefix {
		t.Errorf("dns64 prefix = %v, want %v", tb.Healthy64.Prefix, MismatchedPrefix)
	}
	if err := Apply(tb, "nat64-checksum-corruption"); err != nil {
		t.Fatal(err)
	}
	if !tb.Gateway.NAT64.CorruptChecksums {
		t.Error("nat64 checksum corruption not armed")
	}
}
