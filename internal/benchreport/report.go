// Package benchreport runs a named suite of performance scenarios —
// the incremental evaluator, the solver strategies, the result cache,
// the durable job store's append and recovery paths — and
// renders the measurements as a schema-versioned, machine-readable
// JSON report. The committed BENCH_pr<N>.json files form the repo's
// performance trajectory: one report per PR, regenerated and diffed
// by CI on every change, so a regression in a tracked scenario is a
// failing check instead of a folk memory.
//
// The package deliberately does not use `go test -bench`: the suite
// must run as a plain binary (cmd/benchreport) with stable scenario
// names, machine-comparable output and an exit code CI can gate on.
package benchreport

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// SchemaVersion identifies the report's JSON layout. Consumers must
// reject reports whose schema_version they do not understand rather
// than misread fields.
const SchemaVersion = 1

// Report is one full suite run.
type Report struct {
	// SchemaVersion is always SchemaVersion at write time.
	SchemaVersion int `json:"schema_version"`

	// Label names the run, e.g. "pr4" for a committed baseline or
	// "pr" for a CI regeneration.
	Label string `json:"label"`

	// GoVersion is runtime.Version() of the measuring binary.
	GoVersion string `json:"go_version"`

	// BenchTime is the per-scenario measurement budget the run used.
	BenchTime string `json:"bench_time"`

	// Host fingerprints the measuring machine; comparisons across
	// different hosts are warned about, not failed, because absolute
	// timings and parallel speedups are host-shaped.
	Host Host `json:"host"`

	// Scenarios are the measurements, in suite order.
	Scenarios []Scenario `json:"scenarios"`

	// Ratios are derived cross-scenario comparisons (speedups), which
	// stay meaningful across moderate host noise.
	Ratios []Ratio `json:"ratios"`
}

// Host fingerprints the measuring machine.
type Host struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentHost returns the running process's host fingerprint.
func CurrentHost() Host {
	return Host{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Comparable reports whether absolute timings measured on h and o can
// be held against each other: same platform and the same parallelism.
func (h Host) Comparable(o Host) bool {
	return h == o
}

// Scenario is one measured workload.
type Scenario struct {
	// Name is the stable scenario identifier, e.g.
	// "solver/pruned/n=19". Comparisons join on it.
	Name string `json:"name"`

	// Group is the subsystem under measurement ("eval", "solver",
	// "jobstore").
	Group string `json:"group"`

	// Tracked scenarios gate CI: a tracked regression beyond the
	// threshold fails the bench-report job, an untracked one warns.
	Tracked bool `json:"tracked"`

	// Iterations is how many operations the final measurement ran.
	Iterations int `json:"iterations"`

	// NsPerOp, AllocsPerOp and BytesPerOp are the per-operation cost.
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`

	// Extra carries scenario-specific derived measurements — latency
	// percentiles, hit rates — that do not fit the per-op triple.
	// Comparisons ignore it; it exists for humans and dashboards.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Ratio is a derived cross-scenario comparison: Value =
// Numerator's ns/op divided by Denominator's ns/op, so a speedup of
// the denominator over the numerator reads as Value > 1.
type Ratio struct {
	Name        string  `json:"name"`
	Numerator   string  `json:"numerator"`
	Denominator string  `json:"denominator"`
	Value       float64 `json:"value"`

	// HigherIsBetter marks speedups CI guards against shrinking;
	// informational ratios (e.g. the fsync durability premium) leave
	// it false and are reported without gating.
	HigherIsBetter bool `json:"higher_is_better"`
}

// Scenario returns the named scenario, or false.
func (r *Report) Scenario(name string) (Scenario, bool) {
	for _, s := range r.Scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Ratio returns the named ratio, or false.
func (r *Report) Ratio(name string) (Ratio, bool) {
	for _, ra := range r.Ratios {
		if ra.Name == name {
			return ra, true
		}
	}
	return Ratio{}, false
}

// Encode writes the report as indented JSON with a trailing newline.
func (r *Report) Encode(w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("benchreport: encoding report: %w", err)
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Encode(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Decode reads a report and validates its schema version.
func Decode(rd io.Reader) (Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Report{}, fmt.Errorf("benchreport: decoding report: %w", err)
	}
	if r.SchemaVersion != SchemaVersion {
		return Report{}, fmt.Errorf("benchreport: schema version %d, this binary understands %d",
			r.SchemaVersion, SchemaVersion)
	}
	return r, nil
}

// LoadFile reads a report from path.
func LoadFile(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	return Decode(f)
}
