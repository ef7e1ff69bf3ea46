package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/jobs"
	"uptimebroker/internal/jobstore"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/telemetry"
)

// newDurableServer builds a broker stack with a persistent job store
// in dir. Unlike newTestServer it does not register cleanup for the
// API server: recovery tests shut it down mid-test and start a
// successor.
func newDurableServer(t *testing.T, dir string, opts ...ServerOption) (*httptest.Server, *Server, *Client) {
	t.Helper()
	cat := catalog.Default()
	store := telemetry.NewStore()
	engine, err := broker.New(cat, broker.CatalogParams{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(engine, store, nil, append([]ServerOption{WithJobDir(dir)}, opts...)...)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv)
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return ts, srv, client
}

// TestServerRestartRecovery is the end-to-end durability contract: a
// broker started with a data directory, "killed" mid-job, and
// restarted must serve completed results, re-run queued jobs to
// completion, fail the interrupted job with restart_lost, and keep
// job IDs strictly increasing.
func TestServerRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Incarnation one: complete a real job so its result is journaled.
	ts1, srv1, client1 := newDurableServer(t, dir)
	done, err := client1.SubmitJob(ctx, JobKindRecommend, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}
	doneStatus, err := client1.WaitJob(ctx, done.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doneStatus.State != "done" {
		t.Fatalf("job 1 = %s, want done", doneStatus.State)
	}
	wantRec, err := doneStatus.Recommendation()
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Close()

	// The crash: append what a kill -9 mid-job leaves in the WAL — a
	// started-but-unfinished job and a still-queued job, both with
	// real payloads the resolver must reconstitute.
	backend, err := jobstore.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := backend.Load()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	crash := []jobstore.Event{
		{Type: jobstore.EventSubmitted, Time: now, ID: "job-00000002", Seq: snap.Seq + 1, Kind: JobKindRecommend, Payload: payload},
		{Type: jobstore.EventStarted, Time: now, ID: "job-00000002"},
		{Type: jobstore.EventProgress, Time: now, ID: "job-00000002", Evaluated: 3, SpaceSize: 8},
		{Type: jobstore.EventSubmitted, Time: now, ID: "job-00000003", Seq: snap.Seq + 2, Kind: JobKindPareto, Payload: payload},
	}
	for _, ev := range crash {
		if err := backend.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation two recovers the store.
	ts2, srv2, client2 := newDurableServer(t, dir)
	defer func() { ts2.Close(); srv2.Close() }()

	// Completed results are still fetchable, bit for bit.
	recovered, err := client2.GetJob(ctx, done.ID)
	if err != nil {
		t.Fatalf("completed job lost across restart: %v", err)
	}
	if recovered.State != "done" {
		t.Fatalf("job 1 after restart = %s, want done", recovered.State)
	}
	gotRec, err := recovered.Recommendation()
	if err != nil {
		t.Fatal(err)
	}
	if gotRec.BestOption != wantRec.BestOption || len(gotRec.Cards) != len(wantRec.Cards) {
		t.Fatalf("recovered result diverges: best %d/%d cards %d/%d",
			gotRec.BestOption, wantRec.BestOption, len(gotRec.Cards), len(wantRec.Cards))
	}

	// The interrupted job reports restart_lost with its last progress.
	lost, err := client2.GetJob(ctx, "job-00000002")
	if err != nil {
		t.Fatal(err)
	}
	if lost.State != "failed" || lost.Error == nil || lost.Error.Code != CodeRestartLost {
		t.Fatalf("mid-run job after restart = %s / %+v, want failed / restart_lost", lost.State, lost.Error)
	}
	if lost.Progress == nil || lost.Progress.Evaluated != 3 || lost.Progress.SpaceSize != 8 {
		t.Fatalf("mid-run job progress = %+v, want 3/8 preserved", lost.Progress)
	}

	// The queued job re-runs to completion through the resolver.
	requeued, err := client2.WaitJob(ctx, "job-00000003")
	if err != nil {
		t.Fatal(err)
	}
	if requeued.State != "done" {
		t.Fatalf("queued job after restart = %s (error %+v), want done", requeued.State, requeued.Error)
	}
	if _, err := requeued.ParetoFront(); err != nil {
		t.Fatalf("requeued pareto result: %v", err)
	}

	// New IDs continue past everything recovered.
	fresh, err := client2.SubmitJob(ctx, JobKindRecommend, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID <= "job-00000003" {
		t.Fatalf("post-restart ID %s does not increase past job-00000003", fresh.ID)
	}
}

// TestRecoveredTooLargeKeepsCode: a job that failed because its
// answer was too large reads answer_too_large both in the incarnation
// that ran it and after a restart recovers it from the journal.
func TestRecoveredTooLargeKeepsCode(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	ts1, srv1, client1 := newDurableServer(t, dir)
	snap, err := srv1.jobs.Submit(JobKindPareto, nil, func(context.Context) (any, error) {
		return nil, jobFailure(fmt.Errorf("broker: %w", optimize.ErrFrontierStateCap))
	})
	if err != nil {
		t.Fatal(err)
	}
	live, err := client1.WaitJob(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if live.State != "failed" || live.Error == nil || live.Error.Code != CodeAnswerTooLarge {
		t.Fatalf("live job = %s / %+v, want failed / answer_too_large", live.State, live.Error)
	}
	ts1.Close()
	srv1.Close()

	ts2, srv2, client2 := newDurableServer(t, dir)
	defer func() { ts2.Close(); srv2.Close() }()
	recovered, err := client2.GetJob(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.State != "failed" || recovered.Error == nil || recovered.Error.Code != CodeAnswerTooLarge {
		t.Fatalf("recovered job = %s / %+v, want failed / answer_too_large", recovered.State, recovered.Error)
	}
	if recovered.Error.Detail != live.Error.Detail {
		t.Fatalf("recovered detail %q, want %q", recovered.Error.Detail, live.Error.Detail)
	}
}

// TestJobEventsSSE reads the raw Server-Sent Events stream against a
// gated job, so the stream deterministically observes the running
// state, live progress, and the terminal event with its result.
func TestJobEventsSSE(t *testing.T) {
	dir := t.TempDir()
	ts, srv, _ := newDurableServer(t, dir)
	defer func() { ts.Close(); srv.Close() }()

	attached := make(chan struct{})
	finish := make(chan struct{})
	snap, err := srv.jobs.Submit("recommend", nil, func(ctx context.Context) (any, error) {
		<-attached
		jobs.ReportProgress(ctx, 2048, 8192)
		jobs.ReportProgress(ctx, 8192, 8192)
		<-finish
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
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	var (
		events     int
		progressed bool
		lastEval   int64
		final      JobStatus
		gateOpen   bool
		released   bool
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "" && data != "":
			events++
			var st JobStatus
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				t.Fatalf("event %d is not a job document: %v\n%s", events, err, data)
			}
			data = ""
			// The first delivery proves the subscription is live; only
			// then let the job report progress and finish.
			if !gateOpen {
				gateOpen = true
				close(attached)
			}
			if st.Progress != nil {
				if st.Progress.Evaluated < lastEval {
					t.Fatalf("progress regressed: %d after %d", st.Progress.Evaluated, lastEval)
				}
				lastEval = st.Progress.Evaluated
				if st.State == "running" && st.Progress.Evaluated == 8192 && !released {
					progressed = true
					released = true
					close(finish)
				}
			}
			final = st
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("stream ended on %q (error %+v), want done", final.State, final.Error)
	}
	if !progressed {
		t.Fatal("stream never carried a running progress event")
	}
	// Stream events never embed the (arbitrarily large) result; the
	// job document does.
	if len(final.Result) != 0 {
		t.Fatalf("terminal event carries a result payload: %s", final.Result)
	}
	if final.Progress == nil || final.Progress.SpaceSize != 8192 || final.Progress.Percent != 100 {
		t.Fatalf("terminal progress = %+v, want 8192/8192 (100%%)", final.Progress)
	}
	fetched, err := NewClientMust(t, ts).GetJob(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(fetched.Result) == 0 {
		t.Fatal("GET /v2/jobs/{id} after the terminal event missing the result")
	}
}

// NewClientMust builds a client for an httptest server.
func NewClientMust(t *testing.T, ts *httptest.Server) *Client {
	t.Helper()
	c, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestJobEventsPollingFallback: without SSE negotiation the events
// route answers one JSON snapshot, same shape as GET /v2/jobs/{id}.
func TestJobEventsPollingFallback(t *testing.T) {
	ts, client, _ := newTestServer(t)
	ctx := context.Background()

	job, err := client.SubmitJob(ctx, JobKindRecommend, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitJob(ctx, job.ID); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v2/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("fallback Content-Type = %q, want application/json", ct)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// Like the stream, the fallback reports state + progress only;
	// the result lives at GET /v2/jobs/{id}.
	if st.ID != job.ID || st.State != "done" || len(st.Result) != 0 {
		t.Fatalf("fallback snapshot = %+v", st)
	}

	// Unknown IDs are a job_not_found problem either way.
	missing, err := http.Get(ts.URL + "/v2/jobs/job-nope/events")
	if err != nil {
		t.Fatal(err)
	}
	assertProblem(t, missing, http.StatusNotFound, CodeJobNotFound)
}

// TestWaitJobWithProgress drives the client's streaming wait: the
// callback sees live evaluated/space_size and the final state.
func TestWaitJobWithProgress(t *testing.T) {
	_, client, _ := newTestServer(t)
	ctx := context.Background()

	job, err := client.SubmitJob(ctx, JobKindRecommend, wideWireRequest(13))
	if err != nil {
		t.Fatal(err)
	}
	var updates []JobProgress
	status, err := client.WaitJob(ctx, job.ID, WithProgress(func(p JobProgress) {
		updates = append(updates, p)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "done" {
		t.Fatalf("state = %s, want done", status.State)
	}
	if len(updates) == 0 {
		t.Fatal("progress callback never fired")
	}
	sawSpace := false
	for i, p := range updates {
		if p.JobID != job.ID {
			t.Fatalf("update %d for job %q, want %q", i, p.JobID, job.ID)
		}
		// Recommend jobs report one pass over the k^n space.
		if p.SpaceSize == 1<<13 {
			sawSpace = true
		}
		if f := p.Fraction(); f < 0 || f > 1 {
			t.Fatalf("Fraction = %v out of range", f)
		}
	}
	if !sawSpace {
		t.Fatalf("no update carried the space size; got %+v", updates)
	}
	if last := updates[len(updates)-1]; last.State != "done" {
		t.Fatalf("final update state = %s, want done", last.State)
	}
}

// TestJobListFilterAndLimit covers ?state= and ?limit= on the list
// route.
func TestJobListFilterAndLimit(t *testing.T) {
	ts, client, _ := newTestServer(t)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		job, err := client.SubmitJob(ctx, JobKindRecommend, caseStudyWire())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.WaitJob(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
	}

	fetch := func(query string) JobListResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v2/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v2/jobs%s = %d", query, resp.StatusCode)
		}
		var out JobListResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	all := fetch("")
	if len(all.Jobs) != 3 || all.Total != 3 {
		t.Fatalf("unfiltered list = %d jobs, total %d, want 3/3", len(all.Jobs), all.Total)
	}
	done := fetch("?state=done")
	if len(done.Jobs) != 3 || done.Total != 3 {
		t.Fatalf("state=done list = %d/%d, want 3/3", len(done.Jobs), done.Total)
	}
	queued := fetch("?state=queued")
	if len(queued.Jobs) != 0 || queued.Total != 0 {
		t.Fatalf("state=queued list = %d/%d, want 0/0", len(queued.Jobs), queued.Total)
	}
	page := fetch("?state=done&limit=2")
	if len(page.Jobs) != 2 || page.Total != 3 {
		t.Fatalf("limit=2 page = %d jobs, total %d, want 2 jobs of 3", len(page.Jobs), page.Total)
	}
	// Newest first even when paginated.
	if page.Jobs[0].ID < page.Jobs[1].ID {
		t.Fatalf("page not newest-first: %s before %s", page.Jobs[0].ID, page.Jobs[1].ID)
	}

	bad, err := http.Get(ts.URL + "/v2/jobs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	assertProblem(t, bad, http.StatusBadRequest, CodeInvalidRequest)
	badLimit, err := http.Get(ts.URL + "/v2/jobs?limit=-1")
	if err != nil {
		t.Fatal(err)
	}
	assertProblem(t, badLimit, http.StatusBadRequest, CodeInvalidRequest)
}

// TestPerClientRateLimitIsolation: one client exhausting its bucket
// must not starve another (distinguished by X-Forwarded-For behind a
// trusted proxy).
func TestPerClientRateLimitIsolation(t *testing.T) {
	ts, _, _ := newTestServer(t, WithPerClientRateLimit(0.000001, 2), WithTrustedProxy())

	get := func(ip string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/scenarios", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Forwarded-For", ip)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Client A burns its burst of 2, then is limited.
	for i := 0; i < 2; i++ {
		resp := get("203.0.113.7")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("client A request %d = %d, want 200", i, resp.StatusCode)
		}
	}
	limited := get("203.0.113.7")
	assertProblem(t, limited, http.StatusTooManyRequests, CodeRateLimited)

	// Client B is untouched by A's exhaustion.
	respB := get("198.51.100.9")
	defer respB.Body.Close()
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("client B = %d, want 200 while A is limited", respB.StatusCode)
	}

	// Liveness stays exempt for everyone.
	health := get("203.0.113.7")
	health.Body.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz under per-client limit = %d, want 200", resp.StatusCode)
	}
}

// TestClientBucketsEviction: buckets idle past the TTL are dropped on
// the sweep cadence, bounding memory to active clients.
func TestClientBucketsEviction(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	buckets := newClientBuckets(1, 1, clock)

	for i := 0; i < 10; i++ {
		buckets.allow("10.0.0." + string(rune('0'+i)))
	}
	if n := buckets.size(); n != 10 {
		t.Fatalf("bucket count = %d, want 10", n)
	}

	// All ten go idle past the TTL; one fresh client keeps arriving.
	now = now.Add(clientIdleTTL + time.Minute)
	for i := 0; i < clientSweepEvery; i++ {
		buckets.allow("192.0.2.1")
	}
	if n := buckets.size(); n != 1 {
		t.Fatalf("bucket count after sweep = %d, want only the active client", n)
	}
}

// TestClientIP covers the keying rules: headers are ignored unless a
// trusted proxy is declared, and even then only the rightmost
// X-Forwarded-For entry (the one the trusted hop wrote) counts —
// leftmost entries are client-forgeable.
func TestClientIP(t *testing.T) {
	cases := []struct {
		remote, xff string
		trustProxy  bool
		want        string
	}{
		{"192.0.2.10:1234", "", false, "192.0.2.10"},
		{"192.0.2.10:1234", "203.0.113.7", false, "192.0.2.10"}, // forged header, no proxy: ignored
		{"192.0.2.10:1234", "203.0.113.7", true, "203.0.113.7"},
		{"192.0.2.10:1234", "6.6.6.6, 203.0.113.7", true, "203.0.113.7"}, // rightmost = trusted hop's entry
		{"192.0.2.10:1234", "  203.0.113.7  ", true, "203.0.113.7"},
		{"unix", "", false, "unix"},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.RemoteAddr = tc.remote
		if tc.xff != "" {
			r.Header.Set("X-Forwarded-For", tc.xff)
		}
		if got := clientIP(r, tc.trustProxy); got != tc.want {
			t.Errorf("clientIP(remote=%q, xff=%q, trust=%v) = %q, want %q", tc.remote, tc.xff, tc.trustProxy, got, tc.want)
		}
	}
}

// TestXFFIgnoredWithoutTrustedProxy: a directly exposed server must
// not let clients mint fresh buckets per request via forged headers.
func TestXFFIgnoredWithoutTrustedProxy(t *testing.T) {
	ts, _, _ := newTestServer(t, WithPerClientRateLimit(0.000001, 2))

	// Every request forges a different XFF; all come from the same
	// connection address, so they share one bucket and the third 429s.
	for i := 0; i < 2; i++ {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/scenarios", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Forwarded-For", fmt.Sprintf("10.0.0.%d", i))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d, want 200", i, resp.StatusCode)
		}
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/scenarios", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Forwarded-For", "10.0.0.99")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	assertProblem(t, resp, http.StatusTooManyRequests, CodeRateLimited)
}
