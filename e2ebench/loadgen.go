package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"uptimebroker/internal/httpapi"
)

// outcome is what the load generator saw for one op.
type outcome struct {
	ok     bool // 2xx and the body decoded; the oracle judges it later
	traced bool
	latMS  float64 // send → answer decoded
	ackMS  float64 // send → response headers (of the submit, for a job)
	ans    *answer
	err    string
}

// answer is the part of a response the oracle checks: what ROADMAP
// item 1 keeps of a recommendation (best, min-risk and as-is option
// with their TCO, savings, certificate) or a frontier. Card counts
// are deliberately absent.
type answer struct {
	best, minRisk, asIs          int
	bestTCO, minRiskTCO, asIsTCO float64
	savings                      float64
	approximate                  bool
	bound, gap                   float64 // certificate; gap < 0 when absent
	front                        []frontCard
}

type frontCard struct {
	option              int
	haCost, uptime, tco float64
}

func summarize(r httpapi.RecommendationResponse) *answer {
	a := &answer{
		best:        r.BestOption,
		minRisk:     r.MinRiskOption,
		asIs:        r.AsIsOption,
		savings:     r.SavingsPercent,
		approximate: r.Search.Approximate,
		gap:         -1,
	}
	for _, c := range r.Cards {
		if c.Option == a.best {
			a.bestTCO = c.TCOUSD
		}
		if c.Option == a.minRisk {
			a.minRiskTCO = c.TCOUSD
		}
		if c.Option == a.asIs {
			a.asIsTCO = c.TCOUSD
		}
	}
	if r.Search.BoundUSD != nil {
		a.bound = *r.Search.BoundUSD
	}
	if r.Search.Gap != nil {
		a.gap = *r.Search.Gap
	}
	return a
}

func summarizeFront(cards []httpapi.OptionCardDTO) *answer {
	a := &answer{gap: -1, front: make([]frontCard, len(cards))}
	for i, c := range cards {
		a.front[i] = frontCard{option: c.Option, haCost: c.HACostUSD, uptime: c.UptimePercent, tco: c.TCOUSD}
	}
	return a
}

// loadgen sends ops to one server.
type loadgen struct {
	hc     *http.Client
	client *httpapi.Client // jobs and metrics reads, never retried
	base   string
	tr     *tracer // nil: nothing is traced
}

func newLoadgen(hc *http.Client, base string, tr *tracer) (*loadgen, error) {
	c, err := httpapi.NewClient(base, hc, httpapi.WithRetries(0))
	if err != nil {
		return nil, err
	}
	return &loadgen{hc: hc, client: c, base: base, tr: tr}, nil
}

// newHTTPClient keeps one idle connection per caller plus one for a
// job's event stream.
func newHTTPClient(callers int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: callers + 1,
		DisableCompression:  true,
	}}
}

// runClosedLoop sends ops from callers threads, each sending its next
// op only once the previous one is answered, until every op is sent
// or the deadline passes; ops left unsent by then count as failed.
func runClosedLoop(ops []op, callers int, deadline time.Time, do func(buf *bytes.Buffer, i int) outcome) ([]outcome, time.Duration) {
	out := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				if time.Now().After(deadline) {
					out[i] = outcome{err: "not sent: the run's deadline passed"}
					continue
				}
				out[i] = do(&buf, i)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// do sends one op. Traced ops record their spans under op id i.
func (g *loadgen) do(ctx context.Context, buf *bytes.Buffer, o op, i int, traced bool) outcome {
	var tr *tracer
	if traced {
		tr = g.tr
	}
	start := time.Now()
	root := tr.begin("op", i, -1)
	var out outcome
	switch o.kind {
	case opJob:
		out = g.job(ctx, tr, o, i, root, start)
	default:
		out = g.sync(ctx, tr, buf, o, i, root, start)
	}
	tr.finish(root)
	out.traced = traced
	out.latMS = ms(time.Since(start))
	return out
}

var routes = map[opKind]string{
	opRecommend: "/v2/recommendations",
	opPareto:    "/v2/pareto",
	opObserve:   "/v2/observations",
	opJob:       "/v2/jobs",
}

// sync sends a synchronous request and decodes its answer the way a
// caller would.
func (g *loadgen) sync(ctx context.Context, tr *tracer, buf *bytes.Buffer, o op, i, root int, start time.Time) outcome {
	sp := tr.begin("http.request", i, root)
	status, headers, err := g.roundTrip(ctx, http.MethodPost, routes[o.kind], o.body, buf)
	tr.finish(sp)
	out := outcome{ackMS: ms(headers.Sub(start))}
	if err != nil {
		out.err = err.Error()
		return out
	}
	if status/100 != 2 {
		out.err = fmt.Sprintf("%s: HTTP %d: %s", routes[o.kind], status, truncate(buf.String()))
		return out
	}
	sp = tr.begin("httpapi.client_decode", i, root)
	defer tr.finish(sp)
	switch o.kind {
	case opRecommend:
		var resp httpapi.RecommendationResponse
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			out.err = "decoding recommendation: " + err.Error()
			return out
		}
		out.ans = summarize(resp)
	case opPareto:
		var cards []httpapi.OptionCardDTO
		if err := json.Unmarshal(buf.Bytes(), &cards); err != nil {
			out.err = "decoding frontier: " + err.Error()
			return out
		}
		out.ans = summarizeFront(cards)
	}
	out.ok = true
	return out
}

// job submits a job, waits on its event stream until it ends and
// fetches the result, through the broker's own client as uptimectl
// does. If the stream breaks, the client falls back to polling: the
// job still completes for the caller, so the fallback shows as latency
// rather than as a failure.
func (g *loadgen) job(ctx context.Context, tr *tracer, o op, i, root int, start time.Time) outcome {
	var out outcome
	var jr httpapi.JobRequest
	if err := json.Unmarshal(o.body, &jr); err != nil {
		out.err = err.Error()
		return out
	}
	var ack time.Time
	submitCtx := httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GotFirstResponseByte: func() { ack = time.Now() }})
	sp := tr.begin("jobs.submit", i, root)
	job, err := g.client.SubmitJob(submitCtx, jr.Kind, jr.Request)
	tr.finish(sp)
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.ackMS = ms(ack.Sub(start))

	waited := time.Now()
	var ended time.Time
	job, err = g.client.WaitJob(ctx, job.ID, httpapi.WithProgress(func(p httpapi.JobProgress) {
		if (httpapi.JobStatus{State: p.State}).Terminal() {
			ended = time.Now()
		}
	}))
	if err != nil {
		out.err = err.Error()
		return out
	}
	if job.State != "done" {
		out.err = fmt.Sprintf("job %s ended %s", job.ID, job.State)
		return out
	}
	if jr.Kind == httpapi.JobKindPareto {
		front, err := job.ParetoFront()
		if err != nil {
			out.err = err.Error()
			return out
		}
		out.ans = summarizeFront(front)
	} else {
		rec, err := job.Recommendation()
		if err != nil {
			out.err = err.Error()
			return out
		}
		out.ans = summarize(rec)
	}
	if tr != nil {
		tr.record("jobs.events", i, root, waited, ended)
		tr.record("jobs.fetch", i, root, ended, time.Now())
		if job.StartedAt != nil && job.FinishedAt != nil {
			// The server's own stamps split the wait from the run; the
			// stream may coalesce the running event away on short jobs.
			tr.record("jobs.queue_wait", i, root, job.CreatedAt, *job.StartedAt)
			tr.record("jobs.run", i, root, *job.StartedAt, *job.FinishedAt)
		}
	}
	out.ok = true
	return out
}

// roundTrip sends one request and reads the whole body into buf. It
// also returns when the response headers arrived.
func (g *loadgen) roundTrip(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) (int, time.Time, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, g.base+path, rd)
	if err != nil {
		return 0, time.Time{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.hc.Do(req)
	headers := time.Now()
	if err != nil {
		return 0, headers, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, headers, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, headers, nil
}

// drain discards and closes a body so its connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // best effort: the connection is only reused if this succeeds
	resp.Body.Close()
}

func truncate(s string) string {
	if len(s) > 300 {
		return s[:300] + "..."
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
