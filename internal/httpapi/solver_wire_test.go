package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"uptimebroker/internal/optimize"
)

// TestSolverWireBackCompat is the wire half of the config-redesign
// back-compat contract: a request spelling only the deprecated flat
// "strategy" field must encode byte-identically to the pre-redesign
// wire form (no "solver" member appears), and an exact run's response
// must not grow any certificate members — old clients and the job
// journal see unchanged bytes.
func TestSolverWireBackCompat(t *testing.T) {
	req := caseStudyWire()
	req.Strategy = optimize.StrategyPruned

	encoded, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(encoded, []byte(`"solver"`)) {
		t.Fatalf("flat-only request encodes a solver member: %s", encoded)
	}

	// The v2 job journal persists the wire request and re-decodes it on
	// recovery; the flat spelling must survive that round trip exactly.
	var decoded RecommendationRequest
	if err := json.Unmarshal(encoded, &decoded); err != nil {
		t.Fatal(err)
	}
	reencoded, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded, reencoded) {
		t.Fatalf("flat request did not round-trip byte-identically:\n%s\n%s", encoded, reencoded)
	}

	_, client, _ := newTestServer(t)
	resp, err := client.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Search.Strategy != optimize.StrategyPruned {
		t.Fatalf("flat strategy echoed as %q", resp.Search.Strategy)
	}
	body, err := json.Marshal(resp.Search)
	if err != nil {
		t.Fatal(err)
	}
	for _, member := range []string{"approximate", "bound_usd", "gap", "optimal", "budget_exhausted"} {
		if bytes.Contains(body, []byte(`"`+member+`"`)) {
			t.Fatalf("exact run's search stats grew a %q member: %s", member, body)
		}
	}
}

// TestSolverWireRoundTrip: the nested spec survives a marshal cycle
// with every knob intact — the fidelity the job journal depends on.
func TestSolverWireRoundTrip(t *testing.T) {
	req := caseStudyWire()
	req.Solver = &SolverConfigDTO{
		Strategy:         optimize.StrategyBounded,
		BudgetMS:         250,
		MaxEvaluations:   9999,
		BeamWidth:        32,
		MaxDiscrepancies: 3,
		Epsilon:          0.125,
	}
	encoded, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var decoded RecommendationRequest
	if err := json.Unmarshal(encoded, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Solver == nil || *decoded.Solver != *req.Solver {
		t.Fatalf("solver spec round-tripped as %+v, want %+v", decoded.Solver, req.Solver)
	}
}

// TestSolverUnknownFieldRejected: a mistyped knob inside the "solver"
// object is a 400 with the dedicated invalid_solver problem code, and
// the offending field is named. Unknown fields elsewhere in the body
// stay tolerated (forward compatibility is per-object, not global).
func TestSolverUnknownFieldRejected(t *testing.T) {
	ts, _, _ := newTestServer(t)

	body := `{"base": {"name": "x", "provider": "industry", "components": []},
	          "sla_percent": 98,
	          "solver": {"strategy": "beam", "beamwidth": 3}}`
	resp, err := ts.Client().Post(ts.URL+"/v1/recommendations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var prob Problem
	if err := json.NewDecoder(resp.Body).Decode(&prob); err != nil {
		t.Fatal(err)
	}
	if prob.Code != CodeInvalidSolver {
		t.Fatalf("problem code %q, want %q", prob.Code, CodeInvalidSolver)
	}
	if !strings.Contains(prob.Detail, "beamwidth") {
		t.Fatalf("detail %q does not name the unknown field", prob.Detail)
	}

	// Top-level unknown fields remain tolerated.
	tolerant := `{"base": {"name": "x", "provider": "industry", "components": []},
	              "sla_percent": 98, "future_field": true}`
	resp2, err := ts.Client().Post(ts.URL+"/v1/recommendations", "application/json", strings.NewReader(tolerant))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode == http.StatusBadRequest {
		t.Fatal("top-level unknown field rejected; only the solver object is strict")
	}
}

// TestSolverContradictionRejected: flat and nested strategies that
// disagree are refused with a problem response naming both spellings.
func TestSolverContradictionRejected(t *testing.T) {
	_, client, _ := newTestServer(t)
	req := caseStudyWire()
	req.Strategy = optimize.StrategyPruned
	req.Solver = &SolverConfigDTO{Strategy: optimize.StrategyBeam}
	_, err := client.Recommend(context.Background(), req)
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusUnprocessableEntity || apiErr.Code != CodeInvalidRequest {
		t.Fatalf("problem = %d/%s, want 422/%s", apiErr.Status, apiErr.Code, CodeInvalidRequest)
	}
	if !strings.Contains(apiErr.Detail, "contradicts") {
		t.Fatalf("detail %q does not explain the contradiction", apiErr.Detail)
	}
}

// TestRecommendAnytimeEndToEnd drives frontier's budget lane through
// the full HTTP surface: the retired anytime names answer exactly
// (frontier, no certificate members), and a budget-stopped run's
// search stats carry the certificate — including the explicit
// optimal/budget_exhausted booleans that omitempty would otherwise
// swallow.
func TestRecommendAnytimeEndToEnd(t *testing.T) {
	_, client, _ := newTestServer(t)
	ctx := context.Background()

	exact, err := client.Recommend(ctx, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}

	for _, strategy := range []string{optimize.StrategyBeam, optimize.StrategyLDS, optimize.StrategyBounded} {
		req := caseStudyWire()
		req.Solver = &SolverConfigDTO{Strategy: strategy, BudgetMS: 60_000}
		resp, err := client.Recommend(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if resp.Search.Strategy != optimize.StrategyFrontier || resp.Search.Approximate || resp.Search.BoundUSD != nil {
			t.Fatalf("%s: search stats %+v, want an exact frontier run", strategy, resp.Search)
		}
		if resp.BestOption != exact.BestOption {
			t.Fatalf("%s: best option %d, exact %d", strategy, resp.BestOption, exact.BestOption)
		}
	}

	req := caseStudyWire()
	req.Solver = &SolverConfigDTO{Strategy: optimize.StrategyFrontier, MaxEvaluations: 1}
	resp, err := client.Recommend(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Search.Strategy != optimize.StrategyFrontier || !resp.Search.Approximate {
		t.Fatalf("budget-stopped run: search stats %+v", resp.Search)
	}
	if resp.Search.BoundUSD == nil || resp.Search.Optimal == nil || resp.Search.BudgetExhausted == nil || !*resp.Search.BudgetExhausted {
		t.Fatalf("certificate members missing: %+v", resp.Search)
	}
	if resp.Search.Gap != nil && *resp.Search.Gap < 0 {
		t.Fatalf("negative gap %v", *resp.Search.Gap)
	}
	if *resp.Search.Optimal && (resp.Search.Gap == nil || *resp.Search.Gap != 0) {
		t.Fatalf("optimal with gap %v", resp.Search.Gap)
	}
}

// TestJobCarriesSolverSpec: a nested spec rides through the async
// surface — the journaled request (deprecated knob included), the
// progress stream and the final result all see the frontier run its
// budget stopped.
func TestJobCarriesSolverSpec(t *testing.T) {
	_, client, _ := newTestServer(t)
	ctx := context.Background()

	req := caseStudyWire()
	req.Solver = &SolverConfigDTO{Strategy: optimize.StrategyBeam, BeamWidth: 16, MaxEvaluations: 1}
	job, err := client.SubmitJob(ctx, JobKindRecommend, req)
	if err != nil {
		t.Fatal(err)
	}
	status, err := client.WaitJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "done" {
		t.Fatalf("job finished as %s (%+v)", status.State, status.Error)
	}
	if status.Progress == nil || status.Progress.Strategy != optimize.StrategyFrontier {
		t.Fatalf("job progress = %+v, want strategy frontier", status.Progress)
	}
	rec, err := status.Recommendation()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Search.Strategy != optimize.StrategyFrontier || !rec.Search.Approximate ||
		rec.Search.BudgetExhausted == nil || !*rec.Search.BudgetExhausted {
		t.Fatalf("job result search stats %+v, want a budget-stopped frontier run", rec.Search)
	}
}

// TestClientSolverOptions: WithSolverConfig, WithBudget and the
// delegating WithStrategy compose into one default spec, applied only
// when a request makes no solver choice of its own.
func TestClientSolverOptions(t *testing.T) {
	ts, _, _ := newTestServer(t)
	client, err := NewClient(ts.URL, ts.Client(),
		WithStrategy(optimize.StrategyFrontier),
		WithBudget(time.Minute, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	resp, err := client.Recommend(ctx, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Search.Strategy != optimize.StrategyFrontier || resp.Search.Approximate {
		t.Fatalf("client solver default not applied: %+v", resp.Search)
	}

	// A per-request choice — even the deprecated flat spelling — wins
	// wholesale over the client default.
	req := caseStudyWire()
	req.Strategy = optimize.StrategyPruned
	resp, err = client.Recommend(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Search.Strategy != optimize.StrategyPruned || resp.Search.Approximate {
		t.Fatalf("per-request flat strategy lost to the client default: %+v", resp.Search)
	}

	nested := caseStudyWire()
	nested.Solver = &SolverConfigDTO{Strategy: optimize.StrategyExhaustive}
	resp, err = client.Recommend(ctx, nested)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Search.Strategy != optimize.StrategyExhaustive {
		t.Fatalf("per-request nested strategy lost to the client default: %+v", resp.Search)
	}
}

// TestRetiredStrategiesAnswerCaseStudy: every retired strategy name,
// in both spellings, still answers the paper's case study — option #3
// best, #5 min-risk, ≈62% savings — by running frontier.
func TestRetiredStrategiesAnswerCaseStudy(t *testing.T) {
	_, client, _ := newTestServer(t)
	ctx := context.Background()
	for _, name := range []string{
		optimize.StrategyBranchAndBound, optimize.StrategyParallelPruned,
		optimize.StrategyBeam, optimize.StrategyLDS, optimize.StrategyBounded,
	} {
		flat := caseStudyWire()
		flat.Strategy = name
		nested := caseStudyWire()
		nested.Solver = &SolverConfigDTO{Strategy: name}
		for _, req := range []RecommendationRequest{flat, nested} {
			resp, err := client.Recommend(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if resp.BestOption != 3 || resp.MinRiskOption != 5 || math.Abs(resp.SavingsPercent-62) > 2 {
				t.Fatalf("%s: best #%d, min-risk #%d, savings %.1f%%; want #3, #5, ~62%%",
					name, resp.BestOption, resp.MinRiskOption, resp.SavingsPercent)
			}
			if resp.Search.Strategy != optimize.StrategyFrontier {
				t.Fatalf("%s echoed as %q, want frontier", name, resp.Search.Strategy)
			}
		}
	}
}

// TestDeprecatedKnobsRangeCheckedAndIgnored: beam_width,
// max_discrepancies and epsilon are still accepted, range-checked (an
// out-of-range value is a 400 invalid_solver) and then ignored — a
// request setting them shares its cache address with one that omits
// them.
func TestDeprecatedKnobsRangeCheckedAndIgnored(t *testing.T) {
	ts, _, _ := newCachedTestServer(t)
	plain := caseStudyWire()
	plain.Solver = &SolverConfigDTO{Strategy: optimize.StrategyFrontier}
	knobbed := caseStudyWire()
	knobbed.Solver = &SolverConfigDTO{Strategy: optimize.StrategyFrontier, BeamWidth: 8, MaxDiscrepancies: 2, Epsilon: 0.25}
	if got := postJSON(t, ts, "/v2/recommendations", knobbed).Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first knobbed request X-Cache = %q, want miss", got)
	}
	if got := postJSON(t, ts, "/v2/recommendations", plain).Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("knob-free request X-Cache = %q, want hit: the knobs must not move the cache address", got)
	}

	for _, bad := range []string{`{"beam_width": -1}`, `{"max_discrepancies": -3}`, `{"epsilon": 1.5}`, `{"epsilon": -0.1}`} {
		body := `{"base": {"name": "x", "provider": "softlayer-sim", "components": []}, "sla_percent": 98, "solver": ` + bad + `}`
		resp, err := ts.Client().Post(ts.URL+"/v2/recommendations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var prob Problem
		err = json.NewDecoder(resp.Body).Decode(&prob)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || prob.Code != CodeInvalidSolver {
			t.Fatalf("%s: %d/%s, want 400/%s", bad, resp.StatusCode, prob.Code, CodeInvalidSolver)
		}
	}
}
