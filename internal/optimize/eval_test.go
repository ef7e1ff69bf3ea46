package optimize

import (
	"context"
	"math/rand"
	"testing"
)

// TestCursorMatchesEvaluateEnumeration is the engine's core
// guarantee: walking the whole space with the incremental cursor
// produces uptime and TCO values bit-identical (==, not within-
// epsilon) to the from-scratch Problem.Evaluate, across randomized
// n/k/cluster shapes and seeds.
func TestCursorMatchesEvaluateEnumeration(t *testing.T) {
	for _, seed := range []int64{1, 20260730, 424242} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 40; trial++ {
			p := randomProblem(rng)
			ev, err := NewEvaluator(p)
			if err != nil {
				t.Fatalf("seed %d trial %d: NewEvaluator: %v", seed, trial, err)
			}
			cur := ev.NewCursor()
			a := make(Assignment, len(p.Components))
			idx := int64(0)
			for {
				want, err := p.Evaluate(a)
				if err != nil {
					t.Fatalf("seed %d trial %d: Evaluate(%v): %v", seed, trial, a, err)
				}
				if got := cur.Uptime(); got != want.Uptime {
					t.Fatalf("seed %d trial %d: cursor uptime %v != Evaluate %v at %v (not bit-identical)",
						seed, trial, got, want.Uptime, a)
				}
				if got := cur.TCO(); got != want.TCO {
					t.Fatalf("seed %d trial %d: cursor TCO %+v != Evaluate %+v at %v",
						seed, trial, got, want.TCO, a)
				}
				if cur.MeetsSLA() != want.MeetsSLA(p.SLA) {
					t.Fatalf("seed %d trial %d: MeetsSLA diverges at %v", seed, trial, a)
				}
				if cur.Index() != idx {
					t.Fatalf("seed %d trial %d: Index() = %d, want %d", seed, trial, cur.Index(), idx)
				}
				if !equalAssignments(cur.Assignment(), a) {
					t.Fatalf("seed %d trial %d: cursor assignment %v, want %v", seed, trial, cur.Assignment(), a)
				}
				idx++
				adv := p.advance(a)
				if cur.Advance() != adv {
					t.Fatalf("seed %d trial %d: Advance() disagrees with the reference at %v", seed, trial, a)
				}
				if !adv {
					break
				}
			}
			if idx != int64(p.SpaceSize()) {
				t.Fatalf("seed %d trial %d: enumerated %d of %d", seed, trial, idx, p.SpaceSize())
			}
		}
	}
}

// TestCursorSeekRandomAccess jumps the cursor to random assignments
// and pins every landing against the from-scratch oracle.
func TestCursorSeekRandomAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng)
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		cur := ev.NewCursor()
		a := make(Assignment, len(p.Components))
		for hop := 0; hop < 60; hop++ {
			for i := range a {
				a[i] = rng.Intn(len(p.Components[i].Variants))
			}
			if err := cur.Seek(a); err != nil {
				t.Fatalf("Seek(%v): %v", a, err)
			}
			want, err := p.Evaluate(a)
			if err != nil {
				t.Fatal(err)
			}
			if cur.Uptime() != want.Uptime || cur.TCO() != want.TCO {
				t.Fatalf("trial %d hop %d: Seek(%v) landed on uptime %v TCO %+v, want %v %+v",
					trial, hop, a, cur.Uptime(), cur.TCO(), want.Uptime, want.TCO)
			}
		}
		// Seek rejects bad input.
		if err := cur.Seek(append(a.Clone(), 0)); err == nil {
			t.Fatal("Seek with wrong length should fail")
		}
		bad := a.Clone()
		bad[0] = len(p.Components[0].Variants)
		if err := cur.Seek(bad); err == nil {
			t.Fatal("Seek with out-of-range index should fail")
		}
	}
}

// TestCursorAdvanceWrapStaysConsistent pins the wrap behavior: after
// Advance exhausts the space, the cursor must be fully re-usable
// without stale checkpoints leaking into the next evaluation.
func TestCursorAdvanceWrapStaysConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(rng)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	cur := ev.NewCursor()
	for cur.Advance() {
	}
	// The cursor wrapped to all-baseline, which it must price exactly,
	// and a Seek that differs only in the last digit must still be
	// exact.
	base, err := p.Evaluate(make(Assignment, len(p.Components)))
	if err != nil {
		t.Fatal(err)
	}
	if cur.Index() != 0 || cur.Uptime() != base.Uptime || cur.TCO() != base.TCO {
		t.Fatalf("wrapped cursor at index %d: %v/%+v want %v/%+v", cur.Index(), cur.Uptime(), cur.TCO(), base.Uptime, base.TCO)
	}
	a := make(Assignment, len(p.Components))
	a[len(a)-1] = len(p.Components[len(a)-1].Variants) - 1
	if err := cur.Seek(a); err != nil {
		t.Fatal(err)
	}
	want, err := p.Evaluate(a)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Uptime() != want.Uptime || cur.TCO() != want.TCO {
		t.Fatalf("post-wrap Seek diverged: %v/%+v want %v/%+v", cur.Uptime(), cur.TCO(), want.Uptime, want.TCO)
	}
}

// TestSolversMatchScratchOracle re-runs the strategy-equivalence
// property against the from-scratch reference implementation: every
// registered exact solver now prices through the compiled evaluator,
// and ExhaustiveScratch is the one path that still re-derives every
// candidate with Problem.Evaluate — agreement here means the
// incremental rewiring changed nothing observable, bit for bit.
func TestSolversMatchScratchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20170611))
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng)
		ref, err := p.ExhaustiveScratch(context.Background())
		if err != nil {
			t.Fatalf("trial %d: ExhaustiveScratch: %v", trial, err)
		}
		for _, strategy := range Strategies() {
			res, err := Solve(context.Background(), p, strategy)
			if err != nil {
				t.Fatalf("trial %d: Solve(%s): %v", trial, strategy, err)
			}
			if res.Best.TCO != ref.Best.TCO || res.Best.Uptime != ref.Best.Uptime ||
				!equalAssignments(res.Best.Assignment, ref.Best.Assignment) {
				t.Fatalf("trial %d: %s best %v/%v/%+v != scratch %v/%v/%+v",
					trial, strategy, res.Best.Assignment, res.Best.Uptime, res.Best.TCO,
					ref.Best.Assignment, ref.Best.Uptime, ref.Best.TCO)
			}
			if res.NoPenaltyFound != ref.NoPenaltyFound {
				t.Fatalf("trial %d: %s NoPenaltyFound %v != scratch %v",
					trial, strategy, res.NoPenaltyFound, ref.NoPenaltyFound)
			}
			if ref.NoPenaltyFound &&
				(res.BestNoPenalty.TCO != ref.BestNoPenalty.TCO ||
					!equalAssignments(res.BestNoPenalty.Assignment, ref.BestNoPenalty.Assignment)) {
				t.Fatalf("trial %d: %s no-penalty %v != scratch %v",
					trial, strategy, res.BestNoPenalty.Assignment, ref.BestNoPenalty.Assignment)
			}
		}
	}
}

// TestStreamMatchesAll pins the streaming visitor against the
// materialized enumeration: same candidates, same order.
func TestStreamMatchesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng)
		want, err := p.All()
		if err != nil {
			t.Fatal(err)
		}

		var got []Candidate
		if err := p.StreamContext(context.Background(), func(cur *Cursor) error {
			if cur.Index() != int64(len(got)) {
				t.Fatalf("trial %d: stream index %d at position %d", trial, cur.Index(), len(got))
			}
			got = append(got, cur.Candidate())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		assertSameCandidates(t, trial, "stream", got, want)
	}
}

func assertSameCandidates(t *testing.T, trial int, label string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d: %s produced %d candidates, want %d", trial, label, len(got), len(want))
	}
	for i := range want {
		if !equalAssignments(got[i].Assignment, want[i].Assignment) ||
			got[i].Uptime != want[i].Uptime || got[i].TCO != want[i].TCO {
			t.Fatalf("trial %d: %s candidate %d = %+v, want %+v", trial, label, i, got[i], want[i])
		}
	}
}

// TestEnumerationZeroAllocs pins the tentpole's memory guarantee: the
// steady-state enumeration loop — advance, evaluate, track the
// incumbent — performs zero heap allocations per candidate.
func TestEnumerationZeroAllocs(t *testing.T) {
	p := BenchProblem(10, BenchSLAPercent)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	cur := ev.NewCursor()
	var res Result
	// Prime the incumbents so their storage exists before measuring.
	res.observeCursor(cur, p.SLA)

	avg := testing.AllocsPerRun(5, func() {
		cur.Reset()
		for {
			res.observeCursor(cur, p.SLA)
			if !cur.Advance() {
				break
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state enumeration allocates %.1f times per full space walk, want 0", avg)
	}
}
