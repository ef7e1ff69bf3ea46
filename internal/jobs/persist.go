package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"uptimebroker/internal/jobstore"
)

// Resolver rebuilds a recovered queued job's Fn from its journaled
// kind and payload — the submit-time closure does not survive a
// restart, so the owner of the job kinds (the HTTP layer) supplies
// the mapping back to executable work.
type Resolver func(kind string, payload []byte) (Fn, error)

// Failure classes journaled with terminal events so a recovered
// job's error keeps its machine-readable meaning across restarts.
// classResultEvicted additionally marks a journaled *done* job whose
// result exceeded the persistence cap: still done (with its result)
// in the process that ran it, failed after a restart.
const (
	classCancelled     = "cancelled"
	classInternal      = "internal"
	classRestartLost   = "restart_lost"
	classRequest       = "request"
	classResultEvicted = "result_evicted"
	classTooLarge      = "too_large"
)

// maxPersistResultBytes caps how large a serialized result the
// journal accepts. One huge result (a wide heterogeneous frontier's
// cards, say) would otherwise dominate the WAL and every snapshot,
// and stall recovery parsing it back. Results over the cap
// stay fetchable from the incarnation that computed them; after a
// restart the job reports a failure explaining the eviction.
const maxPersistResultBytes = 8 << 20

// classify maps a terminal error to its journaled class.
func classify(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrRestartLost):
		return classRestartLost
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return classCancelled
	case errors.Is(err, ErrPanic), errors.Is(err, ErrClosed):
		return classInternal
	case errors.Is(err, ErrTooLarge):
		return classTooLarge
	default:
		return classRequest
	}
}

// recoveredError restores a journaled failure with both its original
// text and the sentinel its class maps to, so errors.Is keeps working
// on recovered snapshots.
type recoveredError struct {
	msg      string
	sentinel error
}

func (e *recoveredError) Error() string { return e.msg }
func (e *recoveredError) Unwrap() error { return e.sentinel }

// errFromRecord rebuilds a Snapshot.Err from a journaled record.
func errFromRecord(rec jobstore.Record) error {
	if rec.Error == "" && rec.State != jobstore.StateFailed && rec.State != jobstore.StateCancelled {
		return nil
	}
	msg := rec.Error
	if msg == "" {
		msg = "jobs: job " + rec.State
	}
	var sentinel error
	switch {
	case rec.State == jobstore.StateCancelled:
		sentinel = context.Canceled
	case rec.ErrClass == classRestartLost:
		sentinel = ErrRestartLost
	case rec.ErrClass == classInternal:
		sentinel = ErrPanic
	case rec.ErrClass == classTooLarge:
		sentinel = ErrTooLarge
	}
	if sentinel == nil {
		return errors.New(msg)
	}
	return &recoveredError{msg: msg, sentinel: sentinel}
}

// Open builds a Store over a persistence backend and recovers its
// prior contents before accepting new work:
//
//   - finished jobs come back with their results intact,
//   - queued jobs are re-queued (their Fn rebuilt by resolver; a nil
//     resolver or a resolver error turns them into restart_lost
//     failures instead of silently dropping them),
//   - jobs that were running when the previous process died are
//     marked failed with ErrRestartLost,
//   - the ID sequence resumes past its high-water mark, so job IDs
//     are strictly increasing across restarts.
//
// The store journals every subsequent transition through the backend
// and compacts the journal on the snapshot interval and at Close.
func Open(backend jobstore.Backend, resolver Resolver, opts ...Option) (*Store, error) {
	if backend == nil {
		return nil, errors.New("jobs: nil backend")
	}
	snap, err := backend.Load()
	if err != nil {
		return nil, fmt.Errorf("jobs: loading persisted jobs: %w", err)
	}

	s := newStore(opts...)
	s.backend = backend
	s.resolver = resolver
	s.seq = snap.Seq

	now := s.now()
	var requeue []string
	var reclassified []*job
	for _, rec := range snap.Jobs {
		j := &job{
			snap: Snapshot{
				ID:         rec.ID,
				Kind:       rec.Kind,
				State:      State(rec.State),
				CreatedAt:  rec.CreatedAt,
				StartedAt:  rec.StartedAt,
				FinishedAt: rec.FinishedAt,
				Evaluated:  rec.Evaluated,
				SpaceSize:  rec.SpaceSize,
				Strategy:   rec.Strategy,
			},
			payload: append([]byte(nil), rec.Payload...),
		}
		if len(rec.Result) > 0 {
			j.snap.Result = json.RawMessage(rec.Result)
		}
		j.snap.Err = errFromRecord(rec)
		s.metrics.Recovered++

		switch State(rec.State) {
		case StateQueued:
			var fn Fn
			ferr := error(nil)
			if resolver == nil {
				ferr = errors.New("no resolver for persisted jobs")
			} else {
				fn, ferr = resolver(rec.Kind, rec.Payload)
			}
			if ferr != nil {
				j.snap.State = StateFailed
				j.snap.FinishedAt = now
				j.snap.Err = fmt.Errorf("%w: cannot re-queue %q job: %v", ErrRestartLost, rec.Kind, ferr)
				s.metrics.Failed++
				reclassified = append(reclassified, j)
			} else {
				j.fn = fn
				s.metrics.QueueDepth++
				requeue = append(requeue, rec.ID)
			}
		case StateRunning:
			// Mid-run at the crash: the enumeration state is gone.
			j.snap.State = StateFailed
			j.snap.FinishedAt = now
			j.snap.Err = fmt.Errorf("%w (was running at shutdown)", ErrRestartLost)
			s.metrics.Failed++
			reclassified = append(reclassified, j)
		case StateDone:
			if rec.ErrClass == classResultEvicted {
				// Completed, but the result was too large to journal:
				// after a restart the payload is unrecoverable, so the
				// honest state is a failure telling the client why.
				j.snap.State = StateFailed
				j.snap.Err = &recoveredError{msg: rec.Error, sentinel: ErrRestartLost}
			}
		case StateFailed, StateCancelled:
			// Preserved as journaled.
		default:
			return nil, fmt.Errorf("jobs: persisted job %s has unknown state %q", rec.ID, rec.State)
		}
		s.jobs[rec.ID] = j
	}

	// Journal the recovery verdicts so a second restart does not
	// reclassify (a restart-lost job must stay restart-lost, not
	// appear running again).
	for _, j := range reclassified {
		s.appendFinishedLocked(j, nil)
	}

	s.start(requeue)
	return s, nil
}

// appendLocked journals one event, counting (but not propagating)
// backend failures: the in-memory store keeps serving. A backend that
// has latched its fail-stop state (jobstore.ErrDegraded) additionally
// latches the store, which refuses further submissions.
func (s *Store) appendLocked(ev jobstore.Event) {
	if s.backend == nil {
		return
	}
	if err := s.backend.Append(ev); err != nil {
		s.metrics.PersistErrors++
		if s.degraded == nil && errors.Is(err, jobstore.ErrDegraded) {
			s.degraded = err
		}
	}
}

// persistedResult returns the journal form of a done job's result:
// the serialized payload when it fits the cap, else nil with an
// eviction note. Serialization itself happened off-lock in runOne; a
// nil resultJSON on a done job with a result means it was
// unmarshalable, which also evicts.
func persistedResult(snap Snapshot, resultJSON []byte) (result []byte, evictNote string) {
	if snap.State != StateDone || snap.Result == nil {
		return nil, ""
	}
	switch {
	case resultJSON == nil:
		return nil, "jobs: result could not be serialized for persistence; resubmit to recompute"
	case len(resultJSON) > maxPersistResultBytes:
		return nil, fmt.Sprintf("jobs: result of %d bytes exceeds the %d-byte persistence cap; resubmit to recompute",
			len(resultJSON), maxPersistResultBytes)
	default:
		return resultJSON, ""
	}
}

// appendFinishedLocked journals a job's terminal transition;
// resultJSON is the pre-serialized result for done jobs (nil
// otherwise).
func (s *Store) appendFinishedLocked(j *job, resultJSON []byte) {
	if s.backend == nil {
		return
	}
	ev := jobstore.Event{
		Type:  jobstore.EventFinished,
		Time:  j.snap.FinishedAt,
		ID:    j.snap.ID,
		State: string(j.snap.State),
	}
	result, evictNote := persistedResult(j.snap, resultJSON)
	ev.Result = result
	switch {
	case evictNote != "":
		ev.Error = evictNote
		ev.ErrClass = classResultEvicted
	case j.snap.Err != nil:
		ev.Error = j.snap.Err.Error()
		ev.ErrClass = classify(j.snap.Err)
	}
	s.appendLocked(ev)
}

// Compact folds the journal into a snapshot; the compactor calls it
// on the snapshot interval. The backend compacts its own folded
// state under its own lock, so no store mutex is held across the
// disk work — submits and polls proceed while a multi-megabyte
// snapshot writes.
func (s *Store) Compact() {
	if s.backend == nil {
		return
	}
	if err := s.backend.Compact(); err != nil {
		s.mu.Lock()
		s.metrics.PersistErrors++
		if s.degraded == nil && errors.Is(err, jobstore.ErrDegraded) {
			s.degraded = err
		}
		s.mu.Unlock()
	}
}

// compactor compacts the journal periodically until Close.
func (s *Store) compactor() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.snapInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.Compact()
		case <-s.baseCtx.Done():
			return
		}
	}
}
