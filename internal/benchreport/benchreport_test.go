package benchreport

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSuiteNamesUniqueAndRatiosResolve(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range Suite() {
		if spec.Name == "" || spec.Group == "" {
			t.Fatalf("spec missing name/group: %+v", spec)
		}
		if seen[spec.Name] {
			t.Fatalf("duplicate scenario name %q", spec.Name)
		}
		seen[spec.Name] = true
	}
	for _, rs := range ratioSpecs {
		if !seen[rs.Numerator] || !seen[rs.Denominator] {
			t.Fatalf("ratio %s references unknown scenarios (%s / %s)", rs.Name, rs.Numerator, rs.Denominator)
		}
	}
}

// TestRunFilteredSubset runs a cheap slice of the real suite:
// measurements land, the ratio whose scenarios both ran is emitted,
// the ones missing a side are not.
func TestRunFilteredSubset(t *testing.T) {
	report, err := Run(Options{
		Label:     "test",
		BenchTime: 5 * time.Millisecond,
		Filter:    regexp.MustCompile(`^jobstore/append/(nosync|fsync)$|^solver/frontier/n=19$`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.SchemaVersion != SchemaVersion || report.Label != "test" {
		t.Fatalf("report header wrong: %+v", report)
	}
	if len(report.Scenarios) != 3 {
		t.Fatalf("ran %d scenarios, want 3", len(report.Scenarios))
	}
	for _, sc := range report.Scenarios {
		if sc.NsPerOp <= 0 || sc.Iterations <= 0 {
			t.Fatalf("scenario %s has empty measurement: %+v", sc.Name, sc)
		}
	}
	if _, ok := report.Ratio("fsync_cost_x"); !ok {
		t.Fatal("ratio for the completed pair missing")
	}
	if len(report.Ratios) != 1 {
		t.Fatalf("ratios = %+v, want only the fsync cost", report.Ratios)
	}
}

func TestReportRoundTripAndSchemaGate(t *testing.T) {
	r := Report{
		SchemaVersion: SchemaVersion,
		Label:         "pr4",
		GoVersion:     "go1.24.0",
		BenchTime:     "1s",
		Host:          CurrentHost(),
		Scenarios:     []Scenario{{Name: "solver/pruned/n=19", Group: "solver", Tracked: true, Iterations: 3, NsPerOp: 100}},
		Ratios:        []Ratio{{Name: "trie_flat_speedup_n19", Numerator: "a", Denominator: "b", Value: 2.5, HigherIsBetter: true}},
	}
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != r.Label || len(back.Scenarios) != 1 || len(back.Ratios) != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}

	future := strings.Replace(buf.String(), `"schema_version": 1`, `"schema_version": 99`, 1)
	if _, err := Decode(strings.NewReader(future)); err == nil {
		t.Fatal("unknown schema version should be rejected")
	}
}

func mkReport(host Host, ns map[string]int64, ratios map[string]float64) Report {
	r := Report{SchemaVersion: SchemaVersion, Host: host}
	for name, v := range ns {
		r.Scenarios = append(r.Scenarios, Scenario{Name: name, Group: "g", Tracked: true, Iterations: 1, NsPerOp: v})
	}
	for name, v := range ratios {
		r.Ratios = append(r.Ratios, Ratio{Name: name, Value: v, HigherIsBetter: true})
	}
	return r
}

func TestCompareDetectsRegressions(t *testing.T) {
	host := CurrentHost()
	baseline := mkReport(host, map[string]int64{"a": 1000, "b": 1000}, map[string]float64{"speedup": 3.0})
	current := mkReport(host, map[string]int64{"a": 1300, "b": 1100}, map[string]float64{"speedup": 2.0})

	cmp := Compare(baseline, current, 25)
	if !cmp.Comparable {
		t.Fatal("same host should be comparable")
	}
	names := map[string]bool{}
	for _, d := range cmp.Regressions {
		names[d.Name] = true
	}
	if !names["a"] {
		t.Fatalf("30%% slower tracked scenario not flagged: %+v", cmp.Regressions)
	}
	if names["b"] {
		t.Fatal("10% slower scenario flagged at a 25% threshold")
	}
	if !names["speedup"] {
		t.Fatalf("speedup ratio losing a third of its value not flagged: %+v", cmp.Regressions)
	}
}

func TestCompareHostMismatchWarnsNotFails(t *testing.T) {
	host := CurrentHost()
	other := host
	other.NumCPU = host.NumCPU + 4
	other.GOMAXPROCS = host.GOMAXPROCS + 4
	baseline := mkReport(other, map[string]int64{"a": 1000}, nil)
	current := mkReport(host, map[string]int64{"a": 5000}, nil)

	cmp := Compare(baseline, current, 25)
	if cmp.Comparable {
		t.Fatal("different hosts should not be comparable")
	}
	if len(cmp.Regressions) != 0 {
		t.Fatalf("host mismatch produced hard regressions: %+v", cmp.Regressions)
	}
	if len(cmp.Warnings) == 0 {
		t.Fatal("host mismatch should warn")
	}
	if len(cmp.Deltas) != 1 {
		t.Fatalf("deltas should still be reported for information: %+v", cmp.Deltas)
	}
}

func TestCompareMissingEntriesWarnBothWays(t *testing.T) {
	host := CurrentHost()
	baseline := mkReport(host, map[string]int64{"a": 1000, "dropped-scenario": 700}, nil)
	current := mkReport(host, map[string]int64{"a": 1000, "new-scenario": 500}, nil)
	cmp := Compare(baseline, current, 25)
	var sawNew, sawDropped bool
	for _, w := range cmp.Warnings {
		if strings.Contains(w, "new-scenario") {
			sawNew = true
		}
		if strings.Contains(w, "dropped-scenario") {
			sawDropped = true
		}
	}
	if !sawNew {
		t.Fatalf("scenario without a baseline entry should warn: %+v", cmp.Warnings)
	}
	if !sawDropped {
		t.Fatalf("baseline scenario missing from the current run should warn: %+v", cmp.Warnings)
	}
	if len(cmp.Regressions) != 0 {
		t.Fatalf("coverage mismatches must not fail on their own: %+v", cmp.Regressions)
	}
}

func TestParseRequirement(t *testing.T) {
	req, err := ParseRequirement("cache_hit_speedup>=10")
	if err != nil {
		t.Fatal(err)
	}
	if req.Ratio != "cache_hit_speedup" || req.Min != 10 || req.MinGOMAXPROCS != 0 {
		t.Fatalf("parsed %+v", req)
	}

	req, err = ParseRequirement("cache_hit_speedup>=2.5@4")
	if err != nil {
		t.Fatal(err)
	}
	if req.Min != 2.5 || req.MinGOMAXPROCS != 4 {
		t.Fatalf("parsed %+v", req)
	}

	// The ceiling spelling, used by the anytime-lane quality gates.
	req, err = ParseRequirement("beam_n30_gap<=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if req.Ratio != "beam_n30_gap" || req.Min != 0.05 || req.Op != "<=" {
		t.Fatalf("parsed %+v", req)
	}
	if got := req.String(); got != "beam_n30_gap<=0.05" {
		t.Fatalf("String() = %q", got)
	}

	for _, bad := range []string{"", "name", "name>=", "name>=x", "name>=1@x", "name<=", "name<=y"} {
		if _, err := ParseRequirement(bad); err == nil {
			t.Fatalf("ParseRequirement(%q) should fail", bad)
		}
	}
}

func TestRequirementCheck(t *testing.T) {
	r := Report{
		SchemaVersion: SchemaVersion,
		Host:          Host{GOMAXPROCS: 2},
		Ratios:        []Ratio{{Name: "speedup", Value: 1.5, HigherIsBetter: true}},
	}

	// Met floor.
	enforced, err := (Requirement{Ratio: "speedup", Min: 1.2}).Check(&r)
	if !enforced || err != nil {
		t.Fatalf("met requirement: enforced=%v err=%v", enforced, err)
	}

	// Unmet floor.
	enforced, err = (Requirement{Ratio: "speedup", Min: 2}).Check(&r)
	if !enforced || err == nil {
		t.Fatalf("unmet requirement should fail: enforced=%v err=%v", enforced, err)
	}

	// Guarded by core count: skipped on a small host.
	enforced, err = (Requirement{Ratio: "speedup", Min: 2, MinGOMAXPROCS: 4}).Check(&r)
	if enforced || err != nil {
		t.Fatalf("guarded requirement on a small host should skip: enforced=%v err=%v", enforced, err)
	}

	// Unknown ratio is always an error.
	if _, err := (Requirement{Ratio: "nope", Min: 1}).Check(&r); err == nil {
		t.Fatal("unknown ratio should fail")
	}

	// Ceilings invert the direction: a value at or below passes, above
	// fails.
	gapped := Report{
		SchemaVersion: SchemaVersion,
		Host:          Host{GOMAXPROCS: 2},
		Ratios:        []Ratio{{Name: "beam_n30_gap", Value: 0.03}},
	}
	enforced, err = (Requirement{Ratio: "beam_n30_gap", Min: 0.05, Op: "<="}).Check(&gapped)
	if !enforced || err != nil {
		t.Fatalf("met ceiling: enforced=%v err=%v", enforced, err)
	}
	enforced, err = (Requirement{Ratio: "beam_n30_gap", Min: 0.01, Op: "<="}).Check(&gapped)
	if !enforced || err == nil {
		t.Fatalf("exceeded ceiling should fail: enforced=%v err=%v", enforced, err)
	}
}
