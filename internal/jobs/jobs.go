// Package jobs is the asynchronous job subsystem: a bounded worker
// pool draining a submission queue, with poll/cancel semantics and
// TTL-based garbage collection of finished jobs. It decouples the
// brokerage's exponential enumeration work from HTTP request
// lifetimes — a client submits work, receives a job ID immediately,
// and polls (or long-polls via the typed client's WaitJob) for the
// result.
//
// States move strictly forward:
//
//	queued → running → done | failed
//	queued | running → cancelled
//
// Finished jobs (done, failed or cancelled) are retained for the
// store's TTL so clients can fetch results, then swept.
//
// A store built with NewStore is purely in-memory. Open builds one
// over a jobstore.Backend instead: every submit, state transition,
// progress update and result is journaled, and the backend's prior
// contents are recovered on start — jobs that were queued are
// re-queued (their Fn rebuilt by the Resolver from the persisted
// payload), jobs that were mid-run when the process died are marked
// failed with ErrRestartLost, finished jobs keep their results, and
// the ID sequence resumes past its high-water mark so IDs never
// collide across restarts.
//
// Running jobs report enumeration progress through Progress;
// Watch streams snapshot updates (state transitions and progress)
// to subscribers, which is what the HTTP layer's Server-Sent Events
// route consumes.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"uptimebroker/internal/jobstore"
	"uptimebroker/internal/obs"
)

// State is a job's position in its lifecycle.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Fn is the unit of work a job runs. It must honor ctx cancellation:
// the store cancels the context when the job is cancelled or the
// store shuts down.
type Fn func(ctx context.Context) (any, error)

// Snapshot is a point-in-time copy of a job's externally visible
// state.
type Snapshot struct {
	// ID identifies the job within its store.
	ID string

	// Kind is the caller-supplied job type label.
	Kind string

	// State is the lifecycle state at snapshot time.
	State State

	// CreatedAt, StartedAt and FinishedAt stamp the transitions;
	// StartedAt and FinishedAt are zero until reached.
	CreatedAt  time.Time
	StartedAt  time.Time
	FinishedAt time.Time

	// Result is the Fn's return value once State is done. For a job
	// recovered from a persistence backend it is the json.RawMessage
	// the result was journaled as.
	Result any

	// Err is the failure once State is failed (or context.Canceled
	// when cancelled mid-run). Jobs lost to a broker restart satisfy
	// errors.Is(Err, ErrRestartLost).
	Err error

	// Evaluated and SpaceSize report the enumeration progress of a
	// running job (zero until the job's Fn reports any); for the
	// brokerage they are the search's evaluated count and k^n.
	Evaluated int64
	SpaceSize int64

	// Strategy is the solver strategy the job's search resolved to
	// (empty until the job's Fn reports one).
	Strategy string
}

// Fraction returns the completed share of the search space in
// [0, 1], or 0 when no progress has been reported.
func (s Snapshot) Fraction() float64 {
	if s.SpaceSize <= 0 {
		return 0
	}
	f := float64(s.Evaluated) / float64(s.SpaceSize)
	if f > 1 {
		f = 1
	}
	return f
}

// Metrics are the store's operational counters.
type Metrics struct {
	// Submitted counts every accepted job.
	Submitted int64 `json:"submitted"`

	// QueueDepth is the number of queued jobs right now.
	QueueDepth int64 `json:"queue_depth"`

	// Running is the number of jobs executing right now.
	Running int64 `json:"running"`

	// Done, Failed and Cancelled count terminal transitions.
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`

	// Swept counts jobs removed by TTL garbage collection.
	Swept int64 `json:"swept"`

	// Recovered counts jobs restored from the persistence backend at
	// open: requeued, restart-lost and finished alike.
	Recovered int64 `json:"recovered"`

	// PersistErrors counts journal appends the backend rejected. The
	// store keeps serving (availability over durability) but a
	// non-zero value means recovery after a crash may lose the
	// affected transitions.
	PersistErrors int64 `json:"persist_errors"`

	// Degraded reports that the persistence backend has latched into
	// its fail-stop read-only state (jobstore.ErrDegraded): new
	// submissions are refused, while polls, results and synchronous
	// serving continue. It never clears without a restart.
	Degraded bool `json:"store_degraded"`

	// QueueLatency is the cumulative queued→running wait across all
	// started jobs; RunLatency the cumulative running→finished time
	// across all finished jobs. Divide by the respective counters for
	// means.
	QueueLatency time.Duration `json:"queue_latency_ns"`
	RunLatency   time.Duration `json:"run_latency_ns"`
}

// Store errors.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")

	// ErrFinished reports a cancel attempt on an already-terminal job.
	ErrFinished = errors.New("jobs: job already finished")

	// ErrQueueFull reports a submission the bounded queue cannot take.
	ErrQueueFull = errors.New("jobs: queue full")

	// ErrClosed reports a submission after Close.
	ErrClosed = errors.New("jobs: store closed")

	// ErrPanic wraps a panic recovered from a job Fn, letting callers
	// classify it as a server fault rather than a request error.
	ErrPanic = errors.New("jobs: job panicked")

	// ErrRestartLost marks a job that was mid-run when the broker
	// died: its partial work is gone and the client must resubmit.
	ErrRestartLost = errors.New("jobs: job interrupted by broker restart")

	// ErrTooLarge marks a job whose request was valid but whose answer
	// is too large to compute or list exactly. The job's Fn wraps such
	// failures in it — the store cannot tell why an Fn failed — and
	// recovery restores it, so the failure keeps its meaning across
	// restarts.
	ErrTooLarge = errors.New("jobs: answer too large")
)

// job is the store's internal record.
type job struct {
	snap Snapshot
	fn   Fn
	// payload is the serialized submission, journaled so a successor
	// store can rebuild fn through the Resolver.
	payload []byte
	// progressLogged is the last Evaluated value journaled, bounding
	// WAL growth from progress events.
	progressLogged int64
	// watchers receive snapshot updates until the job is terminal.
	watchers []*watcher
	// cancel interrupts the running Fn; non-nil only while running.
	cancel context.CancelFunc
	// cancelled marks a queued job cancelled before a worker saw it.
	cancelled bool
}

// Store runs jobs on a bounded worker pool and retains finished jobs
// for a TTL.
type Store struct {
	mu     sync.Mutex
	jobs   map[string]*job
	seq    uint64
	closed bool

	workers  int
	queueCap int
	queue    chan string
	baseCtx  context.Context
	stop     context.CancelFunc
	wg       sync.WaitGroup

	ttl        time.Duration
	gcInterval time.Duration
	now        func() time.Time

	// backend journals transitions; nil for a purely in-memory store.
	backend      jobstore.Backend
	resolver     Resolver
	snapInterval time.Duration

	// degraded latches the backend's fail-stop error the first time an
	// append or compaction reports jobstore.ErrDegraded. Under mu.
	degraded error

	// runsCompleted counts jobs that finished a run (the denominator
	// for the mean run time RunLatency accumulates). Under mu.
	runsCompleted int64

	metrics Metrics

	// queueWait/runSeconds are per-stage latency histograms; nil unless
	// a metrics registry was attached with WithMetricsRegistry.
	queueWait  *obs.Histogram
	runSeconds *obs.Histogram
}

// Option configures a Store.
type Option func(*Store)

// WithWorkers sets the worker pool size (default runtime.GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithQueueCapacity bounds the submission queue (default 1024).
// Submissions beyond capacity fail with ErrQueueFull — backpressure
// instead of unbounded memory growth.
func WithQueueCapacity(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.queueCap = n
		}
	}
}

// WithTTL sets how long finished jobs are retained (default 15m).
func WithTTL(d time.Duration) Option {
	return func(s *Store) {
		if d > 0 {
			s.ttl = d
		}
	}
}

// WithGCInterval sets the janitor's sweep period (default 1m).
func WithGCInterval(d time.Duration) Option {
	return func(s *Store) {
		if d > 0 {
			s.gcInterval = d
		}
	}
}

// WithClock injects a time source, letting tests drive TTL expiry
// deterministically.
func WithClock(now func() time.Time) Option {
	return func(s *Store) {
		if now != nil {
			s.now = now
		}
	}
}

// WithSnapshotInterval sets how often a persistent store compacts its
// journal into a snapshot (default 1m). Only meaningful with Open.
func WithSnapshotInterval(d time.Duration) Option {
	return func(s *Store) {
		if d > 0 {
			s.snapInterval = d
		}
	}
}

// WithMetricsRegistry publishes the store's counters and per-stage
// latency histograms on reg: jobs_*_total counters and queue-depth /
// running gauges pulled from Metrics at collection time, plus
// jobs_queue_wait_seconds and jobs_run_seconds histograms observed as
// jobs move through the pool.
func WithMetricsRegistry(reg *obs.Registry) Option {
	return func(s *Store) {
		if reg == nil {
			return
		}
		s.registerMetrics(reg)
	}
}

// registerMetrics wires the store onto reg. Callback instruments pull
// from Metrics() at collection, so the journal counters need no second
// bookkeeping; only the latency histograms are observed inline.
func (s *Store) registerMetrics(reg *obs.Registry) {
	counters := []struct {
		name, help string
		get        func(Metrics) int64
	}{
		{"jobs_submitted_total", "Jobs accepted into the queue.", func(m Metrics) int64 { return m.Submitted }},
		{"jobs_done_total", "Jobs finished successfully.", func(m Metrics) int64 { return m.Done }},
		{"jobs_failed_total", "Jobs finished in error.", func(m Metrics) int64 { return m.Failed }},
		{"jobs_cancelled_total", "Jobs cancelled before completion.", func(m Metrics) int64 { return m.Cancelled }},
		{"jobs_swept_total", "Finished jobs removed by TTL sweep.", func(m Metrics) int64 { return m.Swept }},
		{"jobs_recovered_total", "Jobs recovered from the journal on start.", func(m Metrics) int64 { return m.Recovered }},
		{"jobs_persist_errors_total", "Journal writes that failed.", func(m Metrics) int64 { return m.PersistErrors }},
	}
	for _, c := range counters {
		get := c.get
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(get(s.Metrics())) })
	}
	reg.GaugeFunc("jobs_queue_depth", "Jobs waiting for a worker.",
		func() float64 { return float64(s.Metrics().QueueDepth) })
	reg.GaugeFunc("jobs_running", "Jobs currently executing.",
		func() float64 { return float64(s.Metrics().Running) })
	reg.GaugeFunc("store_degraded", "1 when the persistent job store has latched read-only after a storage failure.",
		func() float64 {
			if s.Metrics().Degraded {
				return 1
			}
			return 0
		})
	s.queueWait = reg.Histogram("jobs_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.", obs.DefBuckets)
	s.runSeconds = reg.Histogram("jobs_run_seconds",
		"Wall time jobs spent executing.", obs.ExponentialBuckets(0.001, 4, 12))
}

// newStore applies the options without starting any goroutines.
func newStore(opts ...Option) *Store {
	s := &Store{
		jobs:         make(map[string]*job),
		workers:      runtime.GOMAXPROCS(0),
		queueCap:     1024,
		ttl:          15 * time.Minute,
		gcInterval:   time.Minute,
		snapInterval: time.Minute,
		now:          time.Now,
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// start creates the queue (pre-loading any recovered job IDs), then
// launches the worker pool, the TTL janitor and — when a backend is
// attached — the compaction loop.
func (s *Store) start(requeue []string) {
	if len(requeue) > s.queueCap {
		s.queueCap = len(requeue)
	}
	s.queue = make(chan string, s.queueCap)
	for _, id := range requeue {
		s.queue <- id
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())

	for w := 0; w < s.workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.janitor()
	if s.backend != nil {
		s.wg.Add(1)
		go s.compactor()
	}
}

// NewStore starts a purely in-memory job store: its worker pool and
// TTL janitor run until Close.
func NewStore(opts ...Option) *Store {
	s := newStore(opts...)
	s.start(nil)
	return s
}

// Close stops accepting submissions, cancels running jobs, and waits
// for the workers and janitor to exit. Queued jobs that never ran are
// marked cancelled in memory — but a persistent store journals them
// as still queued, so a successor store re-queues them instead of
// discarding the work.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()

	s.stop()
	close(s.queue)
	s.wg.Wait()

	// Anything still queued never got a worker; mark it cancelled so
	// pollers see a terminal state rather than a job stuck in queued.
	// Deliberately not journaled — the journal keeps them "queued"
	// for the successor store to re-run.
	s.mu.Lock()
	now := s.now()
	for _, j := range s.jobs {
		if j.snap.State == StateQueued {
			j.snap.State = StateCancelled
			j.snap.FinishedAt = now
			j.snap.Err = ErrClosed
			s.metrics.QueueDepth--
			s.metrics.Cancelled++
			j.notifyLocked()
		}
	}
	s.mu.Unlock()

	// Final compaction (the backend folds its own journal state, in
	// which those parked jobs still read "queued"), then release it.
	if s.backend != nil {
		s.Compact()
		_ = s.backend.Close()
	}
}

// Submit enqueues fn as a new job of the given kind and returns its
// queued snapshot. payload is the serialized request the job was
// built from; a persistent store journals it so the job can be
// re-queued (through the Resolver) after a restart — pass nil for
// jobs that need not survive one. Submit fails fast with ErrQueueFull
// when the queue is at capacity and ErrClosed after Close.
func (s *Store) Submit(kind string, payload []byte, fn Fn) (Snapshot, error) {
	if fn == nil {
		return Snapshot{}, errors.New("jobs: nil fn")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Snapshot{}, ErrClosed
	}
	if s.degraded != nil {
		// Fail-stop: a latched backend cannot journal the submission,
		// so accepting it would hand out work that silently vanishes on
		// restart. Reads and already-accepted jobs keep serving.
		err := s.degraded
		s.mu.Unlock()
		return Snapshot{}, err
	}
	s.seq++
	j := &job{
		snap: Snapshot{
			ID:        fmt.Sprintf("job-%08d", s.seq),
			Kind:      kind,
			State:     StateQueued,
			CreatedAt: s.now(),
		},
		fn:      fn,
		payload: payload,
	}
	select {
	case s.queue <- j.snap.ID:
	default:
		s.seq--
		s.mu.Unlock()
		return Snapshot{}, ErrQueueFull
	}
	s.jobs[j.snap.ID] = j
	s.metrics.Submitted++
	s.metrics.QueueDepth++
	s.appendLocked(jobstore.Event{
		Type:    jobstore.EventSubmitted,
		Time:    j.snap.CreatedAt,
		ID:      j.snap.ID,
		Seq:     s.seq,
		Kind:    kind,
		Payload: payload,
	})
	if s.degraded != nil {
		// This very submission latched the backend: its event is not in
		// the journal, so withdraw the job instead of acknowledging it.
		// The ID stays burned (seq must never regress once journaling
		// may have partially happened) and the queue entry becomes a
		// no-op via the cancelled flag.
		j.cancelled = true
		delete(s.jobs, j.snap.ID)
		s.metrics.Submitted--
		s.metrics.QueueDepth--
		err := s.degraded
		s.mu.Unlock()
		return Snapshot{}, err
	}
	snap := j.snap
	s.mu.Unlock()
	return snap, nil
}

// Degraded returns the backend's latched fail-stop error, or nil
// while persistence is healthy (or for a purely in-memory store). A
// degraded store refuses new submissions but keeps serving reads,
// running jobs and results.
func (s *Store) Degraded() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// EstimatedQueueWait predicts how long a submission enqueued now
// would wait for a worker: mean observed run time × queue depth ÷
// worker count. Zero when the queue is empty or no run has finished
// yet. The HTTP layer sheds load when this exceeds its bound.
func (s *Store) EstimatedQueueWait() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.metrics.QueueDepth <= 0 || s.runsCompleted == 0 {
		return 0
	}
	avg := s.metrics.RunLatency / time.Duration(s.runsCompleted)
	workers := s.workers
	if workers < 1 {
		workers = 1
	}
	return avg * time.Duration(s.metrics.QueueDepth) / time.Duration(workers)
}

// Get returns the job's current snapshot.
func (s *Store) Get(id string) (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return j.snap, nil
}

// Cancel moves a queued job straight to cancelled, or signals a
// running job's context; it fails with ErrFinished when the job is
// already terminal and ErrNotFound for unknown IDs. The returned
// snapshot reflects the post-cancel state (a running job stays
// "running" until its Fn observes the context).
func (s *Store) Cancel(id string) (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	switch j.snap.State {
	case StateQueued:
		j.cancelled = true
		j.snap.State = StateCancelled
		j.snap.FinishedAt = s.now()
		j.snap.Err = context.Canceled
		s.metrics.QueueDepth--
		s.metrics.Cancelled++
		s.appendFinishedLocked(j, nil)
		j.notifyLocked()
		return j.snap, nil
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
		return j.snap, nil
	default:
		return j.snap, ErrFinished
	}
}

// List returns a snapshot of every retained job, newest first.
func (s *Store) List() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.snap)
	}
	// Newest first by creation time, then by ID for determinism.
	sort.Slice(out, func(i, k int) bool { return laterThan(out[i], out[k]) })
	return out
}

func laterThan(a, b Snapshot) bool {
	if !a.CreatedAt.Equal(b.CreatedAt) {
		return a.CreatedAt.After(b.CreatedAt)
	}
	return a.ID > b.ID
}

// Metrics returns a copy of the store's counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.metrics
	m.Degraded = s.degraded != nil
	return m
}

// Sweep removes finished jobs older than the TTL and returns how many
// it removed. The janitor calls it periodically; tests call it
// directly with an injected clock.
func (s *Store) Sweep() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := s.now().Add(-s.ttl)
	removed := 0
	for id, j := range s.jobs {
		if j.snap.State.Terminal() && !j.snap.FinishedAt.IsZero() && j.snap.FinishedAt.Before(cutoff) {
			delete(s.jobs, id)
			s.appendLocked(jobstore.Event{Type: jobstore.EventSwept, Time: s.now(), ID: id})
			removed++
		}
	}
	s.metrics.Swept += int64(removed)
	return removed
}

// worker drains the queue until Close.
func (s *Store) worker() {
	defer s.wg.Done()
	for id := range s.queue {
		s.runOne(id)
	}
}

// jobIDKey carries the running job's ID in its Fn's context.
type jobIDKey struct{}

// IDFromContext returns the ID of the job whose Fn is running under
// ctx, or "" outside a job. Fns use it to feed Progress.
func IDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey{}).(string)
	return id
}

// reporterKey carries the job's progress reporter in its Fn's context.
type reporterKey struct{}

// ReportProgress reports enumeration progress from inside a running
// job's Fn — equivalent to Store.Progress with the job's own ID, but
// without needing a reference to the store (recovered Fns are built
// by the Resolver before the store finishes constructing). Outside a
// job it is a no-op.
func ReportProgress(ctx context.Context, evaluated, spaceSize int64) {
	if report, ok := ctx.Value(reporterKey{}).(func(int64, int64)); ok {
		report(evaluated, spaceSize)
	}
}

// strategyReporterKey carries the job's strategy reporter in its Fn's
// context.
type strategyReporterKey struct{}

// ReportStrategy records which solver strategy the job's search
// resolved to, from inside a running job's Fn. Outside a job it is a
// no-op.
func ReportStrategy(ctx context.Context, strategy string) {
	if report, ok := ctx.Value(strategyReporterKey{}).(func(string)); ok {
		report(strategy)
	}
}

// runOne executes a single queued job end to end.
func (s *Store) runOne(id string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.cancelled || j.snap.State != StateQueued || s.closed {
		// Cancelled while queued, already swept — or the store is
		// shutting down, in which case the job stays "queued" in the
		// journal so a successor store re-queues it.
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	ctx = context.WithValue(ctx, jobIDKey{}, id)
	ctx = context.WithValue(ctx, reporterKey{}, func(evaluated, spaceSize int64) {
		s.Progress(id, evaluated, spaceSize)
	})
	ctx = context.WithValue(ctx, strategyReporterKey{}, func(strategy string) {
		s.SetStrategy(id, strategy)
	})
	j.cancel = cancel
	j.snap.State = StateRunning
	j.snap.StartedAt = s.now()
	s.metrics.QueueDepth--
	s.metrics.Running++
	s.metrics.QueueLatency += j.snap.StartedAt.Sub(j.snap.CreatedAt)
	if s.queueWait != nil {
		s.queueWait.ObserveSeconds(j.snap.StartedAt.Sub(j.snap.CreatedAt).Seconds())
	}
	s.appendLocked(jobstore.Event{Type: jobstore.EventStarted, Time: j.snap.StartedAt, ID: id})
	j.notifyLocked()
	fn := j.fn
	s.mu.Unlock()

	result, err := runGuarded(ctx, fn)
	interrupted := ctx.Err() != nil // read before releasing the context
	cancel()

	// Serialize the result for the journal before taking the store
	// lock: a large payload must not stall every other submit/poll
	// while it marshals. Failures surface as an evicted result, not a
	// failed job — the in-memory payload stays fetchable.
	var resultJSON []byte
	if s.backend != nil && err == nil && result != nil {
		resultJSON, _ = json.Marshal(result)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	j.snap.FinishedAt = s.now()
	s.metrics.Running--
	s.metrics.RunLatency += j.snap.FinishedAt.Sub(j.snap.StartedAt)
	s.runsCompleted++
	if s.runSeconds != nil {
		s.runSeconds.ObserveSeconds(j.snap.FinishedAt.Sub(j.snap.StartedAt).Seconds())
	}
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || interrupted):
		j.snap.State = StateCancelled
		j.snap.Err = err
		s.metrics.Cancelled++
	case err != nil:
		j.snap.State = StateFailed
		j.snap.Err = err
		s.metrics.Failed++
	default:
		j.snap.State = StateDone
		j.snap.Result = result
		s.metrics.Done++
	}
	s.appendFinishedLocked(j, resultJSON)
	j.notifyLocked()
}

// runGuarded converts a panicking Fn into a failed job instead of
// taking down the worker.
func runGuarded(ctx context.Context, fn Fn) (result any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: %v", ErrPanic, rec)
		}
	}()
	return fn(ctx)
}

// janitor sweeps expired jobs until Close.
func (s *Store) janitor() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.gcInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.Sweep()
		case <-s.baseCtx.Done():
			return
		}
	}
}
