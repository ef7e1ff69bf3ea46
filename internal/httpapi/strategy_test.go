package httpapi

import (
	"bufio"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"uptimebroker/internal/jobs"
	"uptimebroker/internal/optimize"
)

// TestStrategySelectableEndToEnd drives every strategy name through
// the wire request field and checks the response both echoes the
// concrete solver and recommends the same option — strategy is a
// performance knob, never a correctness one.
func TestStrategySelectableEndToEnd(t *testing.T) {
	_, client, _ := newTestServer(t)
	ctx := context.Background()

	base, err := client.Recommend(ctx, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}
	// Auto runs frontier on every space.
	if base.Search.Strategy != optimize.StrategyFrontier {
		t.Fatalf("default strategy echoed %q, want frontier", base.Search.Strategy)
	}

	for strategy, echo := range map[string]string{
		optimize.StrategyExhaustive:     optimize.StrategyExhaustive,
		optimize.StrategyPruned:         optimize.StrategyPruned,
		optimize.StrategyFrontier:       optimize.StrategyFrontier,
		optimize.StrategyBranchAndBound: optimize.StrategyFrontier,
		optimize.StrategyParallelPruned: optimize.StrategyFrontier,
	} {
		req := caseStudyWire()
		req.Strategy = strategy
		resp, err := client.Recommend(ctx, req)
		if err != nil {
			t.Fatalf("Recommend(%s): %v", strategy, err)
		}
		if resp.Search.Strategy != echo {
			t.Fatalf("strategy %q echoed as %q, want %q", strategy, resp.Search.Strategy, echo)
		}
		if resp.BestOption != base.BestOption || resp.MinRiskOption != base.MinRiskOption {
			t.Fatalf("strategy %q changed the recommendation: best %d vs %d",
				strategy, resp.BestOption, base.BestOption)
		}
		if resp.Search.Evaluated+resp.Search.Skipped != resp.Search.SpaceSize {
			t.Fatalf("strategy %q accounting %d+%d != %d",
				strategy, resp.Search.Evaluated, resp.Search.Skipped, resp.Search.SpaceSize)
		}
	}
}

// TestStrategyUnknownRejected: a bogus strategy is a 422
// invalid_request on the synchronous surface.
func TestStrategyUnknownRejected(t *testing.T) {
	_, client, _ := newTestServer(t)
	req := caseStudyWire()
	req.Strategy = "quantum-annealing"
	_, err := client.Recommend(context.Background(), req)
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusUnprocessableEntity || apiErr.Code != CodeInvalidRequest {
		t.Fatalf("problem = %d/%s, want 422/%s", apiErr.Status, apiErr.Code, CodeInvalidRequest)
	}
	if !strings.Contains(apiErr.Detail, "quantum-annealing") {
		t.Fatalf("detail %q does not name the bad strategy", apiErr.Detail)
	}
}

// TestJobEchoesStrategy: a job submitted with an explicit strategy
// reports the strategy that ran — frontier, for the retired
// branch-and-bound name — in the job document's progress block and in
// the result's search stats.
func TestJobEchoesStrategy(t *testing.T) {
	_, client, _ := newTestServer(t)
	ctx := context.Background()

	req := caseStudyWire()
	req.Strategy = optimize.StrategyBranchAndBound
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
	if rec.Search.Strategy != optimize.StrategyFrontier {
		t.Fatalf("result search strategy = %q, want frontier", rec.Search.Strategy)
	}
}

// TestClientDefaultStrategy: WithStrategy stamps outgoing requests
// that leave the choice open; explicit per-request strategies win.
func TestClientDefaultStrategy(t *testing.T) {
	ts, _, _ := newTestServer(t)
	client, err := NewClient(ts.URL, ts.Client(), WithStrategy(optimize.StrategyExhaustive))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	resp, err := client.Recommend(ctx, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Search.Strategy != optimize.StrategyExhaustive {
		t.Fatalf("client default not applied: echoed %q", resp.Search.Strategy)
	}

	req := caseStudyWire()
	req.Strategy = optimize.StrategyPruned
	resp, err = client.Recommend(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Search.Strategy != optimize.StrategyPruned {
		t.Fatalf("per-request strategy lost to the client default: echoed %q", resp.Search.Strategy)
	}

	batch, err := client.RecommendBatch(ctx, []RecommendationRequest{caseStudyWire()})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Succeeded != 1 || batch.Results[0].Recommendation.Search.Strategy != optimize.StrategyExhaustive {
		t.Fatalf("batch item did not inherit the client default: %+v", batch.Results[0])
	}
}

// TestSSEKeepAlivePings: a quiet stream carries ": ping" comment
// frames on the configured cadence, and the terminal event still
// arrives afterwards — pings must not corrupt the framing.
func TestSSEKeepAlivePings(t *testing.T) {
	dir := t.TempDir()
	ts, srv, _ := newDurableServer(t, dir, WithSSEPingInterval(20*time.Millisecond))
	defer func() { ts.Close(); srv.Close() }()

	attached := make(chan struct{})
	finish := make(chan struct{})
	snap, err := srv.jobs.Submit("recommend", nil, func(ctx context.Context) (any, error) {
		<-attached
		<-finish // stay quiet until the test has seen pings
		return map[string]int{"best_option": 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v2/jobs/"+snap.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var (
		pings    int
		events   int
		gateOpen bool
		released bool
		lastData string
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ": ping"):
			pings++
			if pings >= 3 && !released {
				released = true
				close(finish)
			}
		case strings.HasPrefix(line, "data:"):
			lastData = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "" && lastData != "":
			events++
			lastData = ""
			if !gateOpen {
				gateOpen = true
				close(attached)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pings < 3 {
		t.Fatalf("stream carried %d pings, want >= 3", pings)
	}
	if events < 2 {
		t.Fatalf("stream carried %d events, want the lifecycle transitions around the pings", events)
	}
}

// TestClientStreamSurvivesPings: the Go client's SSE reader must
// ignore comment frames and still resolve the wait.
func TestClientStreamSurvivesPings(t *testing.T) {
	dir := t.TempDir()
	ts, srv, client := newDurableServer(t, dir, WithSSEPingInterval(5*time.Millisecond))
	defer func() { ts.Close(); srv.Close() }()

	snap, err := srv.jobs.Submit("recommend", nil, func(ctx context.Context) (any, error) {
		jobs.ReportProgress(ctx, 1, 8)
		time.Sleep(40 * time.Millisecond) // several pings land mid-stream
		jobs.ReportProgress(ctx, 8, 8)
		return map[string]int{"best_option": 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var observations int
	status, err := client.WaitJob(context.Background(), snap.ID, WithProgress(func(JobProgress) {
		observations++
	}))
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "done" {
		t.Fatalf("job finished as %s", status.State)
	}
	if observations == 0 {
		t.Fatal("progress callback never fired")
	}
}
