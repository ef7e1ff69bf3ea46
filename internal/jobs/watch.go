package jobs

import "uptimebroker/internal/jobstore"

// watcher is one Watch subscription: a latest-wins channel of
// snapshot updates.
type watcher struct {
	ch     chan Snapshot
	closed bool
}

// deliverLocked replaces any undelivered snapshot with snap. The
// channel has capacity one and every send happens under the store
// mutex, so after draining the stale element the send cannot block.
func (w *watcher) deliverLocked(snap Snapshot) {
	if w.closed {
		return
	}
	select {
	case <-w.ch:
	default:
	}
	w.ch <- snap
	if snap.State.Terminal() {
		close(w.ch)
		w.closed = true
	}
}

// notifyLocked pushes the job's current snapshot to every watcher,
// closing them after a terminal delivery.
func (j *job) notifyLocked() {
	for _, w := range j.watchers {
		w.deliverLocked(j.snap)
	}
	if j.snap.State.Terminal() {
		j.watchers = nil
	}
}

// Watch subscribes to a job's snapshot updates. The channel first
// carries the job's current snapshot, then every state transition and
// progress update, coalescing to the latest when the consumer lags;
// it is closed after a terminal snapshot is delivered. The returned
// stop function releases the subscription early (safe to call after
// the channel closed). Unknown IDs return ErrNotFound.
func (s *Store) Watch(id string) (<-chan Snapshot, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	w := &watcher{ch: make(chan Snapshot, 1)}
	w.deliverLocked(j.snap)
	if w.closed {
		return w.ch, func() {}, nil
	}
	j.watchers = append(j.watchers, w)
	stop := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, x := range j.watchers {
			if x == w {
				j.watchers = append(j.watchers[:i], j.watchers[i+1:]...)
				break
			}
		}
		if !w.closed {
			close(w.ch)
			w.closed = true
		}
	}
	return w.ch, stop, nil
}

// progressJournalShards bounds how many progress events one job
// writes to the journal: at most this many, spread evenly over the
// search space (plus the final one).
const progressJournalShards = 16

// SetStrategy records the solver strategy a running job's search
// resolved to and fans the update out to watchers. Empty and
// duplicate reports are dropped; the journaled form is a progress
// event carrying the strategy alongside the current position.
func (s *Store) SetStrategy(id, strategy string) {
	if strategy == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.snap.State != StateRunning || j.snap.Strategy == strategy {
		return
	}
	j.snap.Strategy = strategy
	j.notifyLocked()
	s.appendLocked(jobstore.Event{
		Type:      jobstore.EventProgress,
		Time:      s.now(),
		ID:        id,
		Evaluated: j.snap.Evaluated,
		SpaceSize: j.snap.SpaceSize,
		Strategy:  strategy,
	})
}

// Progress records enumeration progress for a running job and fans it
// out to watchers. Updates are monotonic — a report that arrives late
// or re-enumerates a prefix of the space cannot move the bar
// backwards. Journal writes are
// throttled to progressJournalShards per job so a hot enumeration
// loop does not bloat the WAL.
func (s *Store) Progress(id string, evaluated, spaceSize int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.snap.State != StateRunning {
		return
	}
	if spaceSize > j.snap.SpaceSize {
		j.snap.SpaceSize = spaceSize
	}
	if evaluated <= j.snap.Evaluated {
		return
	}
	j.snap.Evaluated = evaluated
	j.notifyLocked()

	stride := j.snap.SpaceSize / progressJournalShards
	if stride < 1 {
		stride = 1
	}
	if evaluated >= j.snap.SpaceSize || evaluated-j.progressLogged >= stride {
		s.appendLocked(jobstore.Event{
			Type:      jobstore.EventProgress,
			Time:      s.now(),
			ID:        id,
			Evaluated: evaluated,
			SpaceSize: j.snap.SpaceSize,
		})
		j.progressLogged = evaluated
	}
}
