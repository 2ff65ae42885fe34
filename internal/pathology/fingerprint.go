package pathology

import (
	"fmt"
	"strings"

	"repro/internal/hoststack"
	"repro/internal/httpsim"
	"repro/internal/portal"
	"repro/internal/profiles"
	"repro/internal/testbed"
)

// FingerprintProfiles returns the canonical client set a fingerprint is
// measured over, in fixed order. The six profiles span every resolver
// and translation posture the testbed distinguishes: RFC 8925+CLAT,
// RDNSS-preferring dual stack, IPv4-DNS-preferring dual stack,
// IPv4-transport-DNS dual stack, IPv4-only, and IPv6-only.
func FingerprintProfiles() []hoststack.Behavior {
	return []hoststack.Behavior{
		profiles.MacOS(),
		profiles.Windows10(),
		profiles.Windows11(),
		profiles.WindowsXP(),
		profiles.NintendoSwitch(),
		profiles.IPv6OnlyLinux(),
	}
}

// NumFingerprintProfiles is len(FingerprintProfiles()), the width of a
// fingerprint vector.
const NumFingerprintProfiles = 6

// Fingerprint is a pathology's signature on the mirror: the fixed
// 10-point score each canonical profile earns in a freshly built world
// with the pathology installed, plus the per-subtest outcome codes
// (portal.OutcomeCode) that explain *how* each score came about.
type Fingerprint struct {
	// Points holds portal.ScoreFixed points per FingerprintProfiles
	// entry — the vector the Decoder keys on.
	Points [NumFingerprintProfiles]int
	// Codes holds the five-character portal outcome signature per
	// profile, the diagnostic detail behind the points.
	Codes [NumFingerprintProfiles]string
}

// String renders the score vector, e.g. "10/9/9/9/2/8".
func (f Fingerprint) String() string {
	parts := make([]string, len(f.Points))
	for i, p := range f.Points {
		parts[i] = fmt.Sprintf("%d", p)
	}
	return strings.Join(parts, "/")
}

// Compute measures the named pathology's fingerprint: one default-world
// testbed per canonical profile, pathology installed before the client
// joins, then a full mirror run scored with the fixed (family-
// validating) logic. Everything runs on the virtual clock, so the
// result is deterministic. Stateful pathologies record an AlignPeriod
// on the testbed; the probe client's join is aligned to that grid with
// the aligner the scenario engine applies to trials (AlignTrial), so
// the fingerprint samples the identical schedule phase a sweep trial
// does. Stateless pathologies join unaligned.
func Compute(name string) (Fingerprint, error) {
	var f Fingerprint
	for i, prof := range FingerprintProfiles() {
		tb := testbed.New(testbed.DefaultOptions())
		if err := Apply(tb, name); err != nil {
			tb.Close()
			return f, err
		}
		if tb.AlignPeriod > 0 {
			tb.AlignTrial()
		}
		c := tb.AddClient("probe", prof)
		res := portal.Run(httpsim.Fetcher(c), tb.Mirror)
		f.Points[i] = portal.ScoreFixed(res).Points
		f.Codes[i] = res.OutcomeCodes()
		tb.Close()
	}
	return f, nil
}

// ComputeAll measures every registered pathology, keyed by name.
func ComputeAll() (map[string]Fingerprint, error) {
	out := make(map[string]Fingerprint, len(registry))
	for _, name := range Names() {
		f, err := Compute(name)
		if err != nil {
			return nil, fmt.Errorf("pathology %q: %w", name, err)
		}
		out[name] = f
	}
	return out, nil
}

// ErrUnknownVector is returned by Decode and DecodePartial when the
// observed score vector matches no registered pathology — including the
// all-zero vector, which is what an operator measures when the probes
// themselves failed to run. Returning a named error instead of the
// "none" control keeps a broken measurement from reading as a healthy
// network.
var ErrUnknownVector = fmt.Errorf("pathology: score vector matches no registered fingerprint")

// ErrTooFewMeasured is returned by DecodePartial when fewer than two
// profiles were measured: a single score is shared by too many
// pathologies to even bound the ambiguity set usefully.
var ErrTooFewMeasured = fmt.Errorf("pathology: need at least two measured profiles to decode")

// Decoder maps an observed score vector back to the pathology that
// produces it — the operator-facing payoff of fingerprint uniqueness:
// run the five subtests against the canonical profiles, look the vector
// up, and the catalog names the failure mode.
type Decoder struct {
	byVector map[[NumFingerprintProfiles]int]string
	// byName keeps the full fingerprints in Names() order for partial-
	// vector matching.
	names  []string
	points [][NumFingerprintProfiles]int
}

// NewDecoder measures every registered pathology and builds the lookup
// table. It fails if two pathologies share a score vector, so holding a
// Decoder is itself proof of fingerprint uniqueness.
func NewDecoder() (*Decoder, error) {
	all, err := ComputeAll()
	if err != nil {
		return nil, err
	}
	d := &Decoder{byVector: make(map[[NumFingerprintProfiles]int]string, len(all))}
	for _, name := range Names() {
		f := all[name]
		if prev, dup := d.byVector[f.Points]; dup {
			return nil, fmt.Errorf("pathology: %q and %q share fingerprint %v", prev, name, f)
		}
		d.byVector[f.Points] = name
		d.names = append(d.names, name)
		d.points = append(d.points, f.Points)
	}
	return d, nil
}

// Decode returns the pathology whose fingerprint matches the observed
// score vector, or ErrUnknownVector when nothing does (the all-zero
// vector of a failed measurement included).
func (d *Decoder) Decode(points [NumFingerprintProfiles]int) (string, error) {
	name, ok := d.byVector[points]
	if !ok {
		return "", ErrUnknownVector
	}
	return name, nil
}

// DecodePartial decodes a vector in which only some profiles were
// measured (measured[i] false means points[i] is unknown). It returns
// every registered pathology consistent with the measured positions, in
// Names() order — an explicit ambiguity set rather than a wrong answer.
// A single-name set is a confident decode; an empty set is
// ErrUnknownVector. Fewer than two measured profiles is
// ErrTooFewMeasured.
func (d *Decoder) DecodePartial(points [NumFingerprintProfiles]int, measured [NumFingerprintProfiles]bool) ([]string, error) {
	n := 0
	for _, m := range measured {
		if m {
			n++
		}
	}
	if n < 2 {
		return nil, ErrTooFewMeasured
	}
	var out []string
	for i, name := range d.names {
		match := true
		for j, m := range measured {
			if m && d.points[i][j] != points[j] {
				match = false
				break
			}
		}
		if match {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		return nil, ErrUnknownVector
	}
	return out, nil
}
