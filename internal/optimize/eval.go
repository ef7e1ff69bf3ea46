package optimize

import (
	"fmt"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/cost"
)

// Evaluator is a Problem compiled for incremental evaluation: every
// variant's availability terms and monthly cost are derived exactly
// once, into flat per-component tables, so pricing a candidate never
// touches the cluster model again. It is immutable after compilation
// and safe to share across goroutines; per-goroutine mutable state
// lives in Cursors.
//
// Combined with the availability.Accumulator's prefix-decomposable
// fold, the compiled tables are what turn the k^n enumeration from
// O(n · cluster-eval) with three heap allocations per candidate into
// amortized O(1) per candidate with none: a Cursor checkpoints the
// fold state after every assignment digit, and a mixed-radix advance
// only re-folds the digits that changed.
type Evaluator struct {
	p     *Problem
	arity []int // arity[i] = len(Components[i].Variants)
	off   []int // off[i] = index of component i's variant 0 in the flat tables
	place []int64
	terms []availability.ClusterTerms
	costs []cost.Money
}

// NewEvaluator validates and compiles the problem, enforcing the
// exact-lane MaxCandidates cap.
func NewEvaluator(p *Problem) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return compileEvaluator(p), nil
}

// newEvaluatorShape compiles without the MaxCandidates cap: the
// frontier DP's work follows its non-dominated states and its state
// cap bounds its memory, so the space size is not a hazard for it.
func newEvaluatorShape(p *Problem) (*Evaluator, error) {
	if err := p.ValidateShape(); err != nil {
		return nil, err
	}
	return compileEvaluator(p), nil
}

// compileEvaluator derives the flat tables from an already-validated
// problem.
func compileEvaluator(p *Problem) *Evaluator {
	n := len(p.Components)
	e := &Evaluator{
		p:     p,
		arity: make([]int, n),
		off:   make([]int, n),
		place: make([]int64, n),
	}
	total := 0
	for i, comp := range p.Components {
		e.arity[i] = len(comp.Variants)
		e.off[i] = total
		total += len(comp.Variants)
	}
	// place[i] is the enumeration weight of digit i (the product of
	// the arities below it), for incremental Index maintenance.
	w := int64(1)
	for i := n - 1; i >= 0; i-- {
		e.place[i] = w
		w *= int64(e.arity[i])
	}
	e.terms = make([]availability.ClusterTerms, total)
	e.costs = make([]cost.Money, total)
	for i, comp := range p.Components {
		for v, variant := range comp.Variants {
			e.terms[e.off[i]+v] = variant.Cluster.Terms()
			e.costs[e.off[i]+v] = variant.MonthlyCost
		}
	}
	return e
}

// Problem returns the compiled problem.
func (e *Evaluator) Problem() *Problem { return e.p }

// NewCursor allocates a cursor positioned on the all-baseline
// assignment. Cursors are not safe for concurrent use; the parallel
// stream gives each worker its own.
func (e *Evaluator) NewCursor() *Cursor {
	n := len(e.p.Components)
	c := &Cursor{
		e:     e,
		a:     make(Assignment, n),
		state: make([]availability.Accumulator, n+1),
		cum:   make([]cost.Money, n+1),
	}
	c.state[0] = availability.NewAccumulator()
	c.Reset()
	return c
}

// Cursor is a position in the candidate space with the evaluation
// state checkpointed after every assignment digit: state[i] is the
// availability fold and cum[i] the HA-cost sum over digits 0..i-1.
// Moving the cursor re-folds only the digits at and after the lowest
// one that changed, so a full mixed-radix enumeration pays amortized
// O(1) per candidate — and the steady-state loop performs zero heap
// allocations, which the allocation tests pin.
//
// All accessors read the checkpoint at n, so they are O(1) and
// allocation-free; Candidate is the only method that allocates (it
// clones the assignment for callers that retain it).
type Cursor struct {
	e     *Evaluator
	a     Assignment
	state []availability.Accumulator
	cum   []cost.Money
	idx   int64
}

// Reset repositions the cursor on the all-baseline assignment.
func (c *Cursor) Reset() {
	for i := range c.a {
		c.a[i] = 0
	}
	c.idx = 0
	c.refold(0)
}

// refold recomputes the checkpoints for digits from..n-1. The fold
// runs the same availability.Accumulator operations, in the same
// order, as the from-scratch Problem.Evaluate — which is what makes
// the two paths bit-identical, a property the equivalence tests
// assert across randomized instances.
func (c *Cursor) refold(from int) {
	e := c.e
	for i := from; i < len(c.a); i++ {
		j := e.off[i] + c.a[i]
		acc := c.state[i]
		acc.Add(e.terms[j])
		c.state[i+1] = acc
		c.cum[i+1] = c.cum[i] + e.costs[j]
	}
}

// Seek positions the cursor on an arbitrary assignment.
func (c *Cursor) Seek(a Assignment) error {
	if len(a) != len(c.a) {
		return fmt.Errorf("optimize: assignment has %d entries, want %d", len(a), len(c.a))
	}
	for i, v := range a {
		if v < 0 || v >= c.e.arity[i] {
			return fmt.Errorf("optimize: component %q: variant index %d out of range [0, %d)",
				c.e.p.Components[i].Name, v, c.e.arity[i])
		}
	}
	idx := int64(0)
	for i, v := range a {
		idx += int64(v) * c.e.place[i]
	}
	copy(c.a, a)
	c.idx = idx
	c.refold(0)
	return nil
}

// Advance steps to the next candidate in mixed-radix enumeration
// order (the last component is the fastest digit); it returns false
// after the final candidate, wrapping the cursor back to the
// all-baseline assignment with its checkpoints consistent, so the
// cursor can be moved again.
func (c *Cursor) Advance() bool {
	for i := len(c.a) - 1; i >= 0; i-- {
		c.a[i]++
		if c.a[i] < c.e.arity[i] {
			c.idx++
			c.refold(i)
			return true
		}
		c.a[i] = 0
	}
	// Wrapped: re-fold so the checkpoints match the digits again
	// before the caller's next move.
	c.idx = 0
	c.refold(0)
	return false
}

// Assignment returns the cursor's current position as a live view:
// the slice aliases cursor state and is invalidated by the next move.
// Callers that retain it must Clone (or take Candidate).
func (c *Cursor) Assignment() Assignment { return c.a }

// Index returns the mixed-radix enumeration index of the current
// assignment: its position in All's output order.
func (c *Cursor) Index() int64 { return c.idx }

// Uptime returns U_s for the current assignment, bit-identical to
// Problem.Evaluate's.
func (c *Cursor) Uptime() float64 {
	return c.state[len(c.a)].Uptime()
}

// HACost returns C_HA for the current assignment.
func (c *Cursor) HACost() cost.Money { return c.cum[len(c.a)] }

// TCO returns the Equation 5 decomposition for the current
// assignment, bit-identical to Problem.Evaluate's.
func (c *Cursor) TCO() cost.TCO {
	return cost.Compute(c.cum[len(c.a)], c.e.p.SLA, c.Uptime())
}

// MeetsSLA reports whether the current assignment's expected uptime
// reaches the contractual target.
func (c *Cursor) MeetsSLA() bool {
	return c.Uptime() >= c.e.p.SLA.Target()
}

// Candidate materializes the current position as a Candidate, cloning
// the assignment so the caller may retain it across moves.
func (c *Cursor) Candidate() Candidate {
	return Candidate{
		Assignment: c.a.Clone(),
		Uptime:     c.Uptime(),
		TCO:        c.TCO(),
	}
}
