package optimize

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/cost"
)

// indexProblem builds a minimal valid problem with the given variant
// arities, just enough structure to construct the indexes.
func indexProblem(arity []int) *Problem {
	comps := make([]ComponentChoices, len(arity))
	for i, k := range arity {
		variants := make([]Variant, k)
		variants[0] = Variant{
			Label:   "none",
			Cluster: availability.Cluster{Name: "c", Nodes: 1, NodeDown: 0.01},
		}
		for v := 1; v < k; v++ {
			variants[v] = Variant{
				Label: "ha",
				Cluster: availability.Cluster{
					Name: "c", Nodes: 1 + v, Tolerated: v, NodeDown: 0.01,
					FailuresPerYear: 2, Failover: time.Minute,
				},
				MonthlyCost: cost.Dollars(float64(50 * v)),
			}
		}
		comps[i] = ComponentChoices{Name: "c", Variants: variants}
	}
	return &Problem{
		Components: comps,
		SLA:        cost.SLA{UptimePercent: 95, Penalty: cost.Penalty{PerHour: cost.Dollars(100)}},
	}
}

// randomAssignment fills a with random in-range digits.
func randomAssignment(rng *rand.Rand, p *Problem, a Assignment) {
	for i := range a {
		a[i] = rng.Intn(len(p.Components[i].Variants))
	}
}

// changedFromPrev computes the honest resume hint for a query sequence:
// the first digit where cur differs from prev (len(cur) when equal),
// which is exactly the promise coverIndex.coversFrom documents.
func changedFromPrev(prev, cur Assignment) int {
	for i := range cur {
		if prev[i] != cur[i] {
			return i
		}
	}
	return len(cur)
}

// TestIndexThreeWayEquivalence drives the linear scan, the pointer trie
// and the flat checkpointed walker through identical random
// insert/query interleavings and requires identical answers on every
// query. The flat index receives honest changed-suffix hints computed
// by diffing consecutive queries, and inserts are interleaved so the
// epoch invalidation path (checkpoints straddling an insert) is
// exercised, not just the frozen-index fast path.
func TestIndexThreeWayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(8)
		arity := make([]int, n)
		for i := range arity {
			arity[i] = 2 + rng.Intn(3)
		}
		p := indexProblem(arity)

		lin := &linearIndex{}
		ptr := newMetIndex(p)
		flat := newFlatMetIndex(p)
		w := flat.newWalker()

		prev := make(Assignment, n)
		cur := make(Assignment, n)
		for step := 0; step < 400; step++ {
			if rng.Intn(4) == 0 {
				m := make(Assignment, n)
				randomAssignment(rng, p, m)
				lin.insert(m)
				ptr.insert(m)
				flat.insert(m)
				continue
			}
			if rng.Intn(3) == 0 {
				// Suffix-local step: the regime the level walk produces.
				copy(cur, prev)
				i := rng.Intn(n)
				cur[i] = rng.Intn(arity[i])
			} else {
				randomAssignment(rng, p, cur)
			}
			from := changedFromPrev(prev, cur)
			want := lin.coversFrom(cur, 0)
			if got := ptr.coversFrom(cur, 0); got != want {
				t.Fatalf("trial %d step %d: pointer trie %v != linear %v on %v", trial, step, got, want, cur)
			}
			if got := w.coversFrom(cur, from); got != want {
				t.Fatalf("trial %d step %d: flat walker (from=%d) %v != linear %v on %v", trial, step, from, got, want, cur)
			}
			if got := flat.coversFrom(cur, 0); got != want {
				t.Fatalf("trial %d step %d: flat rescan %v != linear %v on %v", trial, step, got, want, cur)
			}
			copy(prev, cur)
		}
	}
}

// TestFlatWalkerEpochInvalidation is the regression test for the
// staleness hazard checkpointed walks have with interleaved inserts:
// a query leaves an empty frontier checkpoint at some depth, an insert
// then grows the trie exactly there, and a suffix-local follow-up
// query resumes from the stale checkpoint. Without epoch invalidation
// the walker would answer false from the empty frontier; with it the
// insert forces a root restart and the cover is found.
func TestFlatWalkerEpochInvalidation(t *testing.T) {
	p := indexProblem([]int{2, 2, 2})
	ix := newFlatMetIndex(p)
	w := ix.newWalker()

	if w.coversFrom(Assignment{0, 1, 0}, 0) {
		t.Fatal("empty index claims coverage")
	}
	ix.insert(Assignment{0, 1, 0})
	// Honest hint: only digit 2 changed since the previous query.
	if !w.coversFrom(Assignment{0, 1, 1}, 2) {
		t.Fatal("stale checkpoint survived an insert: cover of {0,1,1} by {0,1,0} missed")
	}
}

// TestFlatIndexTerminalCompression pins the trailing-zero compression
// and terminal-subtree detachment semantics shared with the pointer
// trie: a subset inserted after its superset still clips everything
// the superset did, and covered inserts are no-ops.
func TestFlatIndexTerminalCompression(t *testing.T) {
	p := indexProblem([]int{3, 3, 3, 3})
	ix := newFlatMetIndex(p)
	w := ix.newWalker()

	ix.insert(Assignment{1, 2, 1, 0})
	if !w.coversFrom(Assignment{1, 2, 1, 2}, 0) {
		t.Fatal("superset of stored assignment not covered")
	}
	if w.coversFrom(Assignment{1, 2, 2, 2}, 0) {
		t.Fatal("non-superset reported covered")
	}
	// A lower-level subset detaches the superset subtree; coverage of
	// everything the old entry covered must survive the detach.
	ix.insert(Assignment{1, 0, 0, 0})
	if !w.coversFrom(Assignment{1, 2, 1, 2}, 0) {
		t.Fatal("coverage lost after subset insert detached the subtree")
	}
	if !w.coversFrom(Assignment{1, 0, 0, 0}, 0) {
		t.Fatal("stored subset does not cover itself")
	}
	// Covered insert: must be a no-op, not a corruption.
	ix.insert(Assignment{1, 1, 0, 0})
	if !w.coversFrom(Assignment{1, 1, 2, 0}, 0) {
		t.Fatal("coverage through terminal node broken by covered insert")
	}
	if w.coversFrom(Assignment{0, 1, 1, 1}, 0) {
		t.Fatal("baseline-0 query covered by nothing stored")
	}
}

// TestCoversSteadyStateAllocs pins the zero-allocation property of
// steady-state superset lookups for both iterative walkers: once the
// frontier buffer / explicit stack have grown to the instance's
// high-water mark, covers lookups must not touch the heap — the same
// pin the evaluation loop carries.
func TestCoversSteadyStateAllocs(t *testing.T) {
	p := BenchProblem(16, BenchSLAPercent)
	n := len(p.Components)

	// Populate both indexes with every level-3 combination — a dense
	// met set with deep shared structure.
	flat := newFlatMetIndex(p)
	ptr := newMetIndex(p)
	seed := make(Assignment, n)
	var fill func(idx, remaining int)
	fill = func(idx, remaining int) {
		if remaining == 0 {
			flat.insert(seed)
			ptr.insert(seed)
			return
		}
		for i := idx; i <= n-remaining; i++ {
			seed[i] = 1
			fill(i+1, remaining-1)
			seed[i] = 0
		}
	}
	fill(0, 3)

	w := flat.newWalker()
	queries := make([]Assignment, 64)
	rng := rand.New(rand.NewSource(99))
	for i := range queries {
		q := make(Assignment, n)
		randomAssignment(rng, p, q)
		queries[i] = q
	}
	// Warm both walkers to their high-water marks.
	for _, q := range queries {
		w.coversFrom(q, 0)
		ptr.coversFrom(q, 0)
	}

	if avg := testing.AllocsPerRun(50, func() {
		for _, q := range queries {
			w.coversFrom(q, 0)
		}
	}); avg != 0 {
		t.Fatalf("flat walker steady-state coversFrom allocates %.1f allocs per 64 lookups, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		for _, q := range queries {
			ptr.coversFrom(q, 0)
		}
	}); avg != 0 {
		t.Fatalf("pointer trie steady-state coversFrom allocates %.1f allocs per 64 lookups, want 0", avg)
	}
}

// TestLinearIndexBackingArena pins the satellite fix on the reference
// scan: inserts append into one shared backing arena instead of one
// Clone per met assignment, and earlier met views stay intact across
// backing growth.
func TestLinearIndexBackingArena(t *testing.T) {
	ix := &linearIndex{}
	want := []Assignment{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}, {1, 2, 3}}
	for _, m := range want {
		ix.insert(m)
	}
	for i, m := range want {
		if !equalAssignments(ix.met[i], m) {
			t.Fatalf("met[%d] = %v, want %v (backing growth corrupted earlier views)", i, ix.met[i], m)
		}
	}
	if !ix.coversFrom(Assignment{1, 2, 0}, 0) {
		t.Fatal("linear scan lost coverage after arena inserts")
	}
	// Amortized allocation: inserting into a pre-grown arena must not
	// allocate per met assignment beyond the met-slice append itself.
	big := &linearIndex{backing: make([]int, 0, 1<<16), met: make([]Assignment, 0, 1<<12)}
	m := Assignment{1, 0, 2}
	if avg := testing.AllocsPerRun(100, func() { big.insert(m) }); avg != 0 {
		t.Fatalf("linearIndex.insert into pre-grown arena allocates %.1f/op, want 0", avg)
	}
}

// TestPrunedThreeWaySolverEquivalence runs the full level search on
// all four index configurations — linear reference, pointer trie,
// flat rescan, flat checkpointed (production) — across randomized
// instances and requires byte-identical results *and* effort
// accounting: Evaluated, Skipped, CoverLookups and Clipped all equal.
func TestPrunedThreeWaySolverEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	ctx := context.Background()
	for trial := 0; trial < 80; trial++ {
		p := randomProblem(rng)
		ref, err := p.prunedLinear(ctx)
		if err != nil {
			t.Fatalf("trial %d: linear: %v", trial, err)
		}
		runs := []struct {
			name string
			res  Result
		}{}
		if r, err := p.PrunedPointerTrie(ctx); err != nil {
			t.Fatalf("trial %d: pointer: %v", trial, err)
		} else {
			runs = append(runs, struct {
				name string
				res  Result
			}{"pointer", r})
		}
		if r, err := p.PrunedFlatRescan(ctx); err != nil {
			t.Fatalf("trial %d: flat-rescan: %v", trial, err)
		} else {
			runs = append(runs, struct {
				name string
				res  Result
			}{"flat-rescan", r})
		}
		if r, err := p.PrunedContext(ctx); err != nil {
			t.Fatalf("trial %d: flat-checkpointed: %v", trial, err)
		} else {
			runs = append(runs, struct {
				name string
				res  Result
			}{"flat-checkpointed", r})
		}
		for _, run := range runs {
			r := run.res
			if r.Evaluated != ref.Evaluated || r.Skipped != ref.Skipped ||
				r.CoverLookups != ref.CoverLookups || r.Clipped != ref.Clipped {
				t.Fatalf("trial %d: %s accounting (ev=%d sk=%d cl=%d clip=%d) != linear (ev=%d sk=%d cl=%d clip=%d)",
					trial, run.name, r.Evaluated, r.Skipped, r.CoverLookups, r.Clipped,
					ref.Evaluated, ref.Skipped, ref.CoverLookups, ref.Clipped)
			}
			if !equalAssignments(r.Best.Assignment, ref.Best.Assignment) {
				t.Fatalf("trial %d: %s best %v != linear %v", trial, run.name, r.Best.Assignment, ref.Best.Assignment)
			}
			if r.NoPenaltyFound != ref.NoPenaltyFound {
				t.Fatalf("trial %d: %s NoPenaltyFound diverges", trial, run.name)
			}
			if ref.NoPenaltyFound && !equalAssignments(r.BestNoPenalty.Assignment, ref.BestNoPenalty.Assignment) {
				t.Fatalf("trial %d: %s BestNoPenalty %v != linear %v",
					trial, run.name, r.BestNoPenalty.Assignment, ref.BestNoPenalty.Assignment)
			}
		}
		// The pruned searches do one cover lookup per leaf reached and
		// every clip is a cover clip.
		if ref.CoverLookups != ref.Evaluated+ref.Skipped || ref.Clipped != ref.Skipped {
			t.Fatalf("trial %d: lookup accounting inconsistent: lookups=%d evaluated=%d skipped=%d clipped=%d",
				trial, ref.CoverLookups, ref.Evaluated, ref.Skipped, ref.Clipped)
		}
	}
}
