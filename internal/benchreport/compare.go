package benchreport

import (
	"fmt"
	"strconv"
	"strings"
)

// Delta is one baseline-vs-current comparison outcome.
type Delta struct {
	// Name is the scenario or ratio compared.
	Name string

	// Kind is "scenario" (ns/op, lower is better) or "ratio"
	// (speedup, higher is better).
	Kind string

	// Old and New are the compared values: ns/op for scenarios, the
	// ratio value for ratios.
	Old, New float64

	// ChangePct is the normalized regression magnitude: percent
	// slower for scenarios, percent of speedup lost for ratios.
	// Negative values are improvements.
	ChangePct float64

	// Regression marks tracked entries whose ChangePct exceeded the
	// comparison threshold.
	Regression bool
}

// Comparison is the outcome of holding a current report against a
// committed baseline.
type Comparison struct {
	// Comparable reports whether the two hosts' absolute timings can
	// be held against each other. When false the comparison carries
	// warnings only — a laptop baseline must not fail a CI runner.
	Comparable bool

	// Warnings are human-readable notes (host mismatch, scenarios
	// present on one side only).
	Warnings []string

	// Deltas lists every compared entry, in the current report's
	// order (regressions are additionally collected in Regressions).
	Deltas []Delta

	// Regressions is the failing subset of Deltas.
	Regressions []Delta
}

// Compare holds current against baseline: tracked scenarios failing
// when ns/op grew more than failOverPct percent, tracked
// higher-is-better ratios failing when they lost more than
// failOverPct percent of their value. Hosts that do not match produce
// warnings instead of failures, because absolute timings and parallel
// speedups are shaped by the machine, not the code.
func Compare(baseline, current Report, failOverPct float64) Comparison {
	cmp := Comparison{Comparable: baseline.Host.Comparable(current.Host)}
	if !cmp.Comparable {
		cmp.Warnings = append(cmp.Warnings, fmt.Sprintf(
			"hosts differ (baseline %+v, current %+v): timings reported, regressions not enforced; regenerate the baseline on a comparable host to arm the gate",
			baseline.Host, current.Host))
	}

	for _, cur := range current.Scenarios {
		old, ok := baseline.Scenario(cur.Name)
		if !ok {
			cmp.Warnings = append(cmp.Warnings, fmt.Sprintf("scenario %s has no baseline entry", cur.Name))
			continue
		}
		if old.NsPerOp <= 0 {
			continue
		}
		d := Delta{
			Name:      cur.Name,
			Kind:      "scenario",
			Old:       float64(old.NsPerOp),
			New:       float64(cur.NsPerOp),
			ChangePct: 100 * (float64(cur.NsPerOp) - float64(old.NsPerOp)) / float64(old.NsPerOp),
		}
		d.Regression = cmp.Comparable && cur.Tracked && old.Tracked && d.ChangePct > failOverPct
		cmp.add(d)
	}

	for _, cur := range current.Ratios {
		old, ok := baseline.Ratio(cur.Name)
		if !ok {
			cmp.Warnings = append(cmp.Warnings, fmt.Sprintf("ratio %s has no baseline entry", cur.Name))
			continue
		}
		if old.Value <= 0 {
			continue
		}
		d := Delta{
			Name: cur.Name,
			Kind: "ratio",
			Old:  old.Value,
			New:  cur.Value,
			// For a speedup, losing value is the regression.
			ChangePct: 100 * (old.Value - cur.Value) / old.Value,
		}
		d.Regression = cmp.Comparable && cur.HigherIsBetter && old.HigherIsBetter && d.ChangePct > failOverPct
		cmp.add(d)
	}

	// Baseline entries the current run no longer covers must not
	// silently drop out of the gate: a renamed or filtered-away
	// tracked scenario would otherwise pass green while unguarded.
	for _, old := range baseline.Scenarios {
		if _, ok := current.Scenario(old.Name); !ok {
			cmp.Warnings = append(cmp.Warnings, fmt.Sprintf("baseline scenario %s missing from the current run", old.Name))
		}
	}
	for _, old := range baseline.Ratios {
		if _, ok := current.Ratio(old.Name); !ok {
			cmp.Warnings = append(cmp.Warnings, fmt.Sprintf("baseline ratio %s missing from the current run", old.Name))
		}
	}
	return cmp
}

func (c *Comparison) add(d Delta) {
	c.Deltas = append(c.Deltas, d)
	if d.Regression {
		c.Regressions = append(c.Regressions, d)
	}
}

// Requirement is a hard bound on a ratio: a floor for speedups (the
// CI assertion that the result cache answers at least 10x faster than
// recomputation, optionally only on runners with enough cores), or a
// ceiling for quality figures (the n=30 frontier gap staying at 0).
type Requirement struct {
	// Ratio names the ratio the bound applies to.
	Ratio string

	// Min is the inclusive bound. With Op ">=" it is a floor, with
	// "<=" a ceiling.
	Min float64

	// Op is ">=" (floor, the default when empty) or "<=" (ceiling).
	Op string

	// MinGOMAXPROCS skips the check on hosts with fewer schedulable
	// cores — parallel speedups do not exist on one core. Zero means
	// always enforce.
	MinGOMAXPROCS int
}

// String renders the requirement back in -require syntax (without the
// @procs suffix), for log lines.
func (req Requirement) String() string {
	op := req.Op
	if op == "" {
		op = ">="
	}
	return fmt.Sprintf("%s%s%g", req.Ratio, op, req.Min)
}

// ParseRequirement parses "name>=value" or "name<=value", optionally
// suffixed "@procs" (sets MinGOMAXPROCS) — the cmd/benchreport
// -require syntax.
func ParseRequirement(s string) (Requirement, error) {
	op := ">="
	name, rest, ok := strings.Cut(s, op)
	if !ok {
		op = "<="
		name, rest, ok = strings.Cut(s, op)
	}
	if !ok || name == "" {
		return Requirement{}, fmt.Errorf("benchreport: requirement %q, want NAME>=VALUE, NAME<=VALUE or either with @PROCS", s)
	}
	valueStr, procsStr, hasProcs := strings.Cut(rest, "@")
	value, err := strconv.ParseFloat(valueStr, 64)
	if err != nil {
		return Requirement{}, fmt.Errorf("benchreport: requirement %q: bad value: %w", s, err)
	}
	req := Requirement{Ratio: name, Min: value, Op: op}
	if hasProcs {
		procs, err := strconv.Atoi(procsStr)
		if err != nil {
			return Requirement{}, fmt.Errorf("benchreport: requirement %q: bad GOMAXPROCS floor: %w", s, err)
		}
		req.MinGOMAXPROCS = procs
	}
	return req, nil
}

// Check evaluates the requirement against the report. A skipped check
// (host below MinGOMAXPROCS) returns (false, nil); an enforced pass
// returns (true, nil).
func (req Requirement) Check(r *Report) (enforced bool, err error) {
	if req.MinGOMAXPROCS > 0 && r.Host.GOMAXPROCS < req.MinGOMAXPROCS {
		return false, nil
	}
	ratio, ok := r.Ratio(req.Ratio)
	if !ok {
		return true, fmt.Errorf("benchreport: requirement on unknown ratio %q", req.Ratio)
	}
	failed := ratio.Value < req.Min
	if req.Op == "<=" {
		failed = ratio.Value > req.Min
	}
	if failed {
		op := req.Op
		if op == "" {
			op = ">="
		}
		return true, fmt.Errorf("benchreport: ratio %s = %.4g, required %s %.4g", req.Ratio, ratio.Value, op, req.Min)
	}
	return true, nil
}
