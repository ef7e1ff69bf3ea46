// Package optimize implements the paper's solution search: Equation 6
// (pick the HA-enabled variant with minimum monthly TCO among all k^n
// permutations), the Section III.C refinement that prunes supersets
// of permutations which already satisfy the uptime SLA, and the
// production frontier DP, which reaches the same answers without
// enumerating the space.
//
// The package is deliberately abstract: a Problem is a list of decision
// dimensions (one per component of the base architecture), each with a
// list of Variants (HA choices) carrying the cluster parameters the
// availability model needs and the monthly cost the TCO model needs.
// The broker package compiles topology + catalog + telemetry into a
// Problem.
package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/cost"
)

// Variant is one HA choice for one component: the cluster shape it
// produces and what it costs per month. Variant index 0 of every
// component is by convention "no HA"; Validate enforces that it is also
// the cheapest, which is what makes superset pruning sound.
type Variant struct {
	// Label names the choice in reports, e.g. "none" or "raid1".
	Label string

	// Cluster is the k-redundancy cluster this choice produces.
	Cluster availability.Cluster

	// MonthlyCost is the choice's contribution to C_HA.
	MonthlyCost cost.Money
}

// ComponentChoices is one decision dimension of the search.
type ComponentChoices struct {
	// Name is the component name from the base architecture.
	Name string

	// Variants are the available choices; Variants[0] must be the
	// no-HA baseline and must not cost more than any alternative.
	Variants []Variant
}

// Problem is a full search instance.
type Problem struct {
	// Components are the decision dimensions, in base-architecture
	// order.
	Components []ComponentChoices

	// SLA is the contractual uptime target with its penalty clause.
	SLA cost.SLA
}

// MaxCandidates bounds the space the enumerating strategies
// (exhaustive, pruned) accept; Equation 6 enumerates k^n candidates
// and the paper notes n is usually under 10. Only frontier goes past
// it: its work follows the non-dominated states, not k^n, and its
// state cap bounds its memory.
const MaxCandidates = 1 << 26

// maxShapeCandidates is the hard ceiling even frontier enforces: past it the int64 space-size bookkeeping (progress bars,
// clipped-subtree accounting) would overflow.
const maxShapeCandidates = 1 << 50

// Validate reports whether the problem is well-formed and solvable by
// the exact strategies: the per-component shape invariants plus the
// MaxCandidates space cap.
func (p *Problem) Validate() error {
	if err := p.ValidateShape(); err != nil {
		return err
	}
	space := 1
	for _, comp := range p.Components {
		if space > MaxCandidates/len(comp.Variants) {
			return fmt.Errorf("optimize: search space exceeds %d candidates", MaxCandidates)
		}
		space *= len(comp.Variants)
	}
	return nil
}

// ValidateShape checks everything Validate does except the
// MaxCandidates cap: SLA validity and the per-component invariants
// (valid clusters, non-negative costs, baseline-cheapest ordering that
// makes superset pruning sound). Frontier validates through it so it
// can take spaces the enumerating strategies refuse, up to the
// bookkeeping ceiling.
func (p *Problem) ValidateShape() error {
	if len(p.Components) == 0 {
		return errors.New("optimize: problem has no components")
	}
	if err := p.SLA.Validate(); err != nil {
		return fmt.Errorf("optimize: %w", err)
	}
	space := int64(1)
	for i, comp := range p.Components {
		if len(comp.Variants) == 0 {
			return fmt.Errorf("optimize: component %d (%q) has no variants", i, comp.Name)
		}
		base := comp.Variants[0]
		for j, v := range comp.Variants {
			if err := v.Cluster.Validate(); err != nil {
				return fmt.Errorf("optimize: component %q variant %d (%q): %w", comp.Name, j, v.Label, err)
			}
			if v.MonthlyCost < 0 {
				return fmt.Errorf("optimize: component %q variant %q: negative cost", comp.Name, v.Label)
			}
			if v.MonthlyCost < base.MonthlyCost {
				return fmt.Errorf("optimize: component %q variant %q costs less than the no-HA baseline; reorder variants",
					comp.Name, v.Label)
			}
		}
		if space > maxShapeCandidates/int64(len(comp.Variants)) {
			return fmt.Errorf("optimize: search space exceeds %d candidates", int64(maxShapeCandidates))
		}
		space *= int64(len(comp.Variants))
	}
	return nil
}

// SpaceSize returns k^n: the number of candidate deployments.
func (p *Problem) SpaceSize() int {
	space := 1
	for _, comp := range p.Components {
		space *= len(comp.Variants)
	}
	return space
}

// Assignment selects one variant index per component.
type Assignment []int

// Clone returns an independent copy of the assignment.
func (a Assignment) Clone() Assignment {
	return append(Assignment(nil), a...)
}

// haCount returns the number of components assigned a non-baseline
// variant — the "level" of the assignment in Section III.C's search
// order.
func (a Assignment) haCount() int {
	n := 0
	for _, v := range a {
		if v != 0 {
			n++
		}
	}
	return n
}

// coveredBy reports whether sub's clustered choices are a subset of
// super's with identical variant selections: wherever sub clusters a
// component, super picks the same variant. Supersets cost at least as
// much as the subset (baseline is cheapest), which justifies pruning.
func coveredBy(sub, super Assignment) bool {
	for i, v := range sub {
		if v != 0 && super[i] != v {
			return false
		}
	}
	return true
}

// Candidate is one fully evaluated deployment option.
type Candidate struct {
	// Assignment is the variant selection that produced the candidate.
	Assignment Assignment

	// Uptime is U_s from Equation 4.
	Uptime float64

	// TCO is the Equation 5 decomposition for this candidate.
	TCO cost.TCO
}

// MeetsSLA reports whether the candidate's expected uptime is at or
// above the contractual target, i.e. its expected penalty is zero.
func (c Candidate) MeetsSLA(sla cost.SLA) bool {
	return c.Uptime >= sla.Target()
}

// Evaluate computes uptime and TCO for one assignment. The assignment
// must have one in-range index per component.
func (p *Problem) Evaluate(a Assignment) (Candidate, error) {
	if len(a) != len(p.Components) {
		return Candidate{}, fmt.Errorf("optimize: assignment has %d entries, want %d", len(a), len(p.Components))
	}
	clusters := make([]availability.Cluster, len(a))
	var haCost cost.Money
	for i, choice := range a {
		comp := p.Components[i]
		if choice < 0 || choice >= len(comp.Variants) {
			return Candidate{}, fmt.Errorf("optimize: component %q: variant index %d out of range [0, %d)",
				comp.Name, choice, len(comp.Variants))
		}
		v := comp.Variants[choice]
		clusters[i] = v.Cluster
		haCost += v.MonthlyCost
	}
	sys := availability.System{Clusters: clusters}
	uptime := sys.Uptime()
	return Candidate{
		Assignment: a.Clone(),
		Uptime:     uptime,
		TCO:        cost.Compute(haCost, p.SLA, uptime),
	}, nil
}

// better reports whether a should replace b as the incumbent optimum:
// strictly lower TCO, with ties broken first by higher uptime, then by
// lexicographically smaller assignment for determinism.
func better(a, b Candidate) bool {
	at, bt := a.TCO.Total(), b.TCO.Total()
	if at != bt {
		return at < bt
	}
	if a.Uptime != b.Uptime {
		return a.Uptime > b.Uptime
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			return a.Assignment[i] < b.Assignment[i]
		}
	}
	return false
}

// Result is the outcome of a search.
type Result struct {
	// Best is the minimum-TCO candidate (Equation 6's OptCh).
	Best Candidate

	// BestNoPenalty is the cheapest candidate whose expected uptime
	// meets the SLA, i.e. the recommendation "if the possibility of
	// slippage penalty is to be minimized" (the paper's option #5 in
	// the case study). Found is false when no candidate meets the SLA.
	BestNoPenalty Candidate

	// NoPenaltyFound reports whether any candidate met the SLA.
	NoPenaltyFound bool

	// Evaluated counts full candidate evaluations performed.
	Evaluated int

	// Skipped counts candidates resolved without evaluation: clipped
	// by the pruned search, or dropped with a dominated frontier state
	// (zero for exhaustive).
	Skipped int

	// CoverLookups counts superset-index lookups performed (one per
	// leaf reached by the pruned search; zero for the others).
	CoverLookups int

	// Clipped counts candidates clipped because a recorded SLA-meeting
	// assignment covered them (the pruned search; equal to its
	// Skipped).
	Clipped int

	// Strategy is the name of the concrete solver that produced the
	// result when it came through Solve ("auto" and the retired aliases
	// resolve to the strategy that ran); empty for direct method calls.
	Strategy string

	// Approximate reports a frontier run stopped early by its budget
	// or its state cap: Best is an incumbent rather than a proven
	// optimum, and the certificate fields below are populated. Exact
	// runs leave all of them zero.
	Approximate bool

	// Bound is the certified admissible lower bound on the optimal
	// TCO: no candidate in the space — searched or not — costs less.
	// Only meaningful when Approximate is set.
	Bound cost.Money

	// Gap is the certified relative optimality gap,
	// (incumbent − bound) / bound: the incumbent provably costs at most
	// (1+Gap) times the true optimum. Zero means the incumbent is
	// proven optimal. When Bound is zero while the incumbent is not,
	// the relative gap is undefined and reported as +Inf (the wire
	// layer omits it). Only meaningful when Approximate is set.
	Gap float64

	// Optimal reports the gap closed to zero: the incumbent is a
	// proven optimum despite the early stop (the bound tightened onto
	// the incumbent).
	Optimal bool

	// BudgetExhausted reports the search stopped on its wall-clock or
	// evaluation budget rather than running to completion.
	BudgetExhausted bool
}

// certify stamps the early-stop certificate onto a result: the
// admissible lower bound, the relative gap it implies for the
// incumbent, and whether the search ran out of budget. Admissible
// bounds never exceed the incumbent (which is a real candidate, so its
// total is at least the optimum); the clamp only guards float edge
// cases in callers' bound arithmetic.
func (r *Result) certify(bound cost.Money, budgetExhausted bool) {
	r.Approximate = true
	r.BudgetExhausted = budgetExhausted
	if bound < 0 {
		bound = 0
	}
	inc := r.Best.TCO.Total()
	if bound > inc {
		bound = inc
	}
	r.Bound = bound
	switch {
	case inc == bound:
		r.Gap = 0
		r.Optimal = true
	case bound > 0:
		r.Gap = float64(inc-bound) / float64(bound)
	default:
		r.Gap = math.Inf(1)
	}
}

func (r *Result) observe(c Candidate, sla cost.SLA) {
	if r.Evaluated == 0 || better(c, r.Best) {
		r.Best = c
	}
	if c.MeetsSLA(sla) {
		if !r.NoPenaltyFound || betterNoPenalty(c, r.BestNoPenalty) {
			r.BestNoPenalty = c
			r.NoPenaltyFound = true
		}
	}
	r.Evaluated++
}

// observeCursor is observe for the incremental enumeration loops: the
// same incumbent ordering, but reading the cursor in place and
// cloning an assignment only when an incumbent's storage is first
// needed — replacements copy into the existing slice, so the steady-
// state loop allocates nothing (a property the allocation tests pin).
func (r *Result) observeCursor(cur *Cursor, sla cost.SLA) {
	tco := cur.TCO()
	up := cur.Uptime()
	if r.Evaluated == 0 || cursorBetter(tco.Total(), up, cur.a, r.Best) {
		setIncumbent(&r.Best, cur.a, up, tco)
	}
	if up >= sla.Target() {
		if !r.NoPenaltyFound || cursorBetter(tco.Total(), up, cur.a, r.BestNoPenalty) {
			setIncumbent(&r.BestNoPenalty, cur.a, up, tco)
			r.NoPenaltyFound = true
		}
	}
	r.Evaluated++
}

// cursorBetter is better/betterNoPenalty (they apply the same
// ordering) against an incumbent, without materializing a Candidate
// for the challenger.
func cursorBetter(total cost.Money, up float64, a Assignment, b Candidate) bool {
	if bt := b.TCO.Total(); total != bt {
		return total < bt
	}
	if up != b.Uptime {
		return up > b.Uptime
	}
	for i := range a {
		if a[i] != b.Assignment[i] {
			return a[i] < b.Assignment[i]
		}
	}
	return false
}

// setIncumbent installs a new incumbent, reusing the previous one's
// assignment storage when present.
func setIncumbent(dst *Candidate, a Assignment, up float64, tco cost.TCO) {
	if cap(dst.Assignment) < len(a) {
		dst.Assignment = a.Clone()
	} else {
		dst.Assignment = dst.Assignment[:len(a)]
		copy(dst.Assignment, a)
	}
	dst.Uptime = up
	dst.TCO = tco
}

// betterNoPenalty orders SLA-meeting candidates: cheaper HA cost first
// (their penalty is zero, so TCO == HA cost), ties broken by higher
// uptime then assignment order.
func betterNoPenalty(a, b Candidate) bool {
	if a.TCO.Total() != b.TCO.Total() {
		return a.TCO.Total() < b.TCO.Total()
	}
	if a.Uptime != b.Uptime {
		return a.Uptime > b.Uptime
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			return a.Assignment[i] < b.Assignment[i]
		}
	}
	return false
}

// cancelCheckEvery is how many candidate evaluations pass between
// context cancellation checks inside the enumeration loops. Small
// enough that a cancelled search aborts within microseconds, large
// enough that the channel poll is invisible in profiles.
const cancelCheckEvery = 64

// canceler amortizes ctx.Err() polls across enumeration iterations.
type canceler struct {
	ctx   context.Context
	count int
}

// check returns the context's error on a cancellation poll boundary.
func (c *canceler) check() error {
	if c.ctx == nil {
		return nil
	}
	c.count++
	if c.count%cancelCheckEvery != 0 {
		return nil
	}
	return c.ctx.Err()
}

// Exhaustive evaluates every one of the k^n candidates (Equation 6).
func (p *Problem) Exhaustive() (Result, error) {
	return p.ExhaustiveContext(context.Background())
}

// ExhaustiveContext is Exhaustive with cooperative cancellation:
// the enumeration aborts with ctx.Err() shortly after ctx is done.
// A WithProgress hook on the context receives periodic
// evaluated/space reports.
//
// The enumeration runs on the compiled incremental evaluator —
// amortized O(1) per candidate, zero steady-state allocations — with
// values bit-identical to the from-scratch ExhaustiveScratch
// reference, which the equivalence tests assert.
func (p *Problem) ExhaustiveContext(ctx context.Context) (Result, error) {
	ev, err := NewEvaluator(p)
	if err != nil {
		return Result{}, err
	}
	var res Result
	if err := ev.stream(ctx, func(cur *Cursor) error {
		res.observeCursor(cur, p.SLA)
		return nil
	}); err != nil {
		return Result{}, err
	}
	return res, nil
}

// exhaustivePresentation is ExhaustiveContext under the option cards'
// selection rule (see SolvePresentation): ties on TCO (and, among
// SLA-meeting candidates, on HA cost) go to the fewest clustered
// components, then to the first candidate streamed — the stream is
// lexicographic, so only strict improvements replace.
func (p *Problem) exhaustivePresentation(ctx context.Context) (Result, error) {
	ev, err := NewEvaluator(p)
	if err != nil {
		return Result{}, err
	}
	var res Result
	var bestHA, meetHA int
	// improves reports whether a candidate of the given total displaces
	// an incumbent of total inc with incHA clustered components.
	improves := func(total, inc cost.Money, a Assignment, incHA int) bool {
		if total != inc {
			return total < inc
		}
		return a.haCount() < incHA
	}
	if err := ev.stream(ctx, func(cur *Cursor) error {
		tco := cur.TCO()
		total := tco.Total()
		if res.Evaluated == 0 || improves(total, res.Best.TCO.Total(), cur.a, bestHA) {
			setIncumbent(&res.Best, cur.a, cur.Uptime(), tco)
			bestHA = cur.a.haCount()
		}
		if cur.MeetsSLA() && (!res.NoPenaltyFound || improves(total, res.BestNoPenalty.TCO.Total(), cur.a, meetHA)) {
			setIncumbent(&res.BestNoPenalty, cur.a, cur.Uptime(), tco)
			res.NoPenaltyFound = true
			meetHA = cur.a.haCount()
		}
		res.Evaluated++
		return nil
	}); err != nil {
		return Result{}, err
	}
	return res, nil
}

// ExhaustiveScratch is the from-scratch reference search: every
// candidate re-derived by Problem.Evaluate, exactly the work the
// incremental engine amortizes away. It is kept as the equivalence
// oracle for the randomized tests and as the baseline the benchreport
// suite's eval_incremental_speedup ratio measures against; production
// paths use ExhaustiveContext.
func (p *Problem) ExhaustiveScratch(ctx context.Context) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	var res Result
	cc := canceler{ctx: ctx}
	pt := newProgressTicker(ctx, p)
	a := make(Assignment, len(p.Components))
	for {
		if err := cc.check(); err != nil {
			return Result{}, err
		}
		c, err := p.Evaluate(a)
		if err != nil {
			return Result{}, err
		}
		res.observe(c, p.SLA)
		pt.advance(1)
		if !p.advance(a) {
			pt.done()
			return res, nil
		}
	}
}

// All evaluates every candidate and returns them in mixed-radix
// enumeration order (assignment [0 0 ... 0] first). It powers the
// per-option report of Figures 3–9.
func (p *Problem) All() ([]Candidate, error) {
	return p.AllContext(context.Background())
}

// AllContext is All with cooperative cancellation: the enumeration
// aborts with ctx.Err() shortly after ctx is done. A WithProgress
// hook on the context receives periodic evaluated/space reports.
//
// It is StreamContext materialized: the incremental evaluator prices
// each candidate and only the per-candidate Candidate clone remains.
// Consumers that can fold candidates online should prefer
// StreamContext and keep O(1) memory instead of O(k^n).
func (p *Problem) AllContext(ctx context.Context) ([]Candidate, error) {
	ev, err := NewEvaluator(p)
	if err != nil {
		return nil, err
	}
	out := make([]Candidate, 0, p.SpaceSize())
	if err := ev.stream(ctx, func(cur *Cursor) error {
		out = append(out, cur.Candidate())
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// advance steps the assignment to the next candidate in mixed-radix
// order with the last component as the fastest digit; it returns false
// after the final candidate.
func (p *Problem) advance(a Assignment) bool {
	for i := len(a) - 1; i >= 0; i-- {
		a[i]++
		if a[i] < len(p.Components[i].Variants) {
			return true
		}
		a[i] = 0
	}
	return false
}
