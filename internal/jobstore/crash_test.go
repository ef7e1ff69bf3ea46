package jobstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"uptimebroker/internal/faultfs"
)

// The crash-enumeration suite runs a fixed append/compact workload on
// the simulated disk, halts it at every mutation boundary (every
// write, fsync, rename, truncate and directory fsync the backend
// performs), derives the post-power-loss filesystem under every
// CrashMode, reopens, and asserts the recovery invariant:
//
//	recovered state == fold of events[0:m] for some m,
//	with m >= number of acknowledged events when fsync is on,
//	less any acknowledged progress events at the tail.
//
// "No acknowledged event lost" is the lower bound on m. Progress
// records are advisory and acknowledged before they are flushed, so
// the bound spares them only until a later durable append is
// acknowledged: that append's flush covers them. "No torn record
// surfaces" and "snapshot rename is atomic" both follow from the
// recovered state matching an exact prefix fold — garbage or a
// half-installed snapshot matches no prefix.

// workloadEvents is the deterministic event sequence. Times are fixed
// so every run is byte-identical (the enumeration depends on it).
func workloadEvents() []Event {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }
	return []Event{
		{Type: EventSubmitted, Time: at(0), ID: "j1", Seq: 1, Kind: "recommend", Payload: json.RawMessage(`{"n":1}`)},
		{Type: EventStarted, Time: at(1), ID: "j1"},
		{Type: EventProgress, Time: at(2), ID: "j1", Evaluated: 10, SpaceSize: 100, Strategy: "exact"},
		{Type: EventSubmitted, Time: at(3), ID: "j2", Seq: 2, Kind: "pareto", Payload: json.RawMessage(`{"n":2}`)},
		{Type: EventFinished, Time: at(4), ID: "j1", State: StateDone, Result: json.RawMessage(`{"ok":true}`)},
		{Type: EventStarted, Time: at(5), ID: "j2"},
		{Type: EventFinished, Time: at(6), ID: "j2", State: StateFailed, Error: "boom", ErrClass: "internal"},
		{Type: EventSwept, Time: at(7), ID: "j1"},
		{Type: EventSubmitted, Time: at(8), ID: "j3", Seq: 3, Kind: "recommend", Payload: json.RawMessage(`{"n":3}`)},
		{Type: EventStarted, Time: at(9), ID: "j3"},
		{Type: EventFinished, Time: at(10), ID: "j3", State: StateCancelled, Error: "cancelled", ErrClass: "cancelled"},
	}
}

// progressTailEvents is the workload followed by a fourth job that
// starts and reports progress: the run ends in an advisory append that
// no durable append follows.
func progressTailEvents() []Event {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }
	return append(workloadEvents(),
		Event{Type: EventSubmitted, Time: at(11), ID: "j4", Seq: 4, Kind: "pareto", Payload: json.RawMessage(`{"n":4}`)},
		Event{Type: EventStarted, Time: at(12), ID: "j4"},
		Event{Type: EventProgress, Time: at(13), ID: "j4", Evaluated: 40, SpaceSize: 100},
	)
}

// durableFloor is the recovery lower bound once acked events of evs
// were acknowledged under fsync or group commit: every one of them,
// less the progress events after the last durable one.
func durableFloor(evs []Event, acked int) int {
	for acked > 0 && evs[acked-1].Type == EventProgress {
		acked--
	}
	return acked
}

// compactAfter marks the workload indices followed by a Compact, so
// the walk crosses snapshot-install and WAL-truncate boundaries with
// both live and swept records in play.
var compactAfter = map[int]bool{4: true, 8: true}

// runCrashWorkload drives the workload until the first error (the
// injected crash halts everything after it). acked counts appends
// that returned nil — the events the caller was told are durable —
// and attempted counts appends that were issued at all.
func runCrashWorkload(fsys faultfs.FS, opts []FileOption) (acked, attempted int, err error) {
	return runCrashEvents(fsys, opts, workloadEvents())
}

// runCrashEvents is runCrashWorkload over any event sequence.
func runCrashEvents(fsys faultfs.FS, opts []FileOption, evs []Event) (acked, attempted int, err error) {
	f, err := OpenFile("data", append([]FileOption{WithFS(fsys)}, opts...)...)
	if err != nil {
		return 0, 0, err
	}
	for i, ev := range evs {
		attempted = i + 1
		if err := f.Append(ev); err != nil {
			return acked, attempted, err
		}
		acked = i + 1
		if compactAfter[i] {
			if err := f.Compact(); err != nil {
				return acked, attempted, err
			}
		}
	}
	return acked, attempted, f.Close()
}

// foldPrefix is the reference model: the pure fold of the first m
// events, bypassing the disk entirely.
func foldPrefix(evs []Event, m int) Snapshot {
	st := newState()
	for _, ev := range evs[:m] {
		st.apply(ev)
	}
	return st.snapshot()
}

// assertRecoversPrefix reopens the crash image and checks the
// recovered state against every admissible prefix fold of the
// workload.
func assertRecoversPrefix(t *testing.T, img *faultfs.Mem, minM, maxM int, ctx string) {
	t.Helper()
	assertRecoversEvents(t, img, workloadEvents(), minM, maxM, ctx)
}

// assertRecoversEvents is assertRecoversPrefix over any event sequence.
func assertRecoversEvents(t *testing.T, img *faultfs.Mem, evs []Event, minM, maxM int, ctx string) {
	t.Helper()
	f, err := OpenFile("data", WithFS(img))
	if err != nil {
		t.Fatalf("%s: reopening after crash: %v", ctx, err)
	}
	snap, err := f.Load()
	_ = f.Close()
	if err != nil {
		t.Fatalf("%s: loading after crash: %v", ctx, err)
	}
	got, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("%s: marshaling snapshot: %v", ctx, err)
	}
	for m := minM; m <= maxM; m++ {
		want, err := json.Marshal(foldPrefix(evs, m))
		if err != nil {
			t.Fatalf("fold prefix %d: %v", m, err)
		}
		if bytes.Equal(got, want) {
			return
		}
	}
	t.Fatalf("%s: recovered state matches no prefix fold in [%d,%d]\nrecovered: %s",
		ctx, minM, maxM, got)
}

// TestCrashEnumerationDurable walks every crash point under every
// crash mode with power-loss durability on (per-append fsync, and the
// group-commit variant which promises the same), over the workload and
// over one that ends in a progress append. At every point the
// recovered state must be a prefix fold that includes every
// acknowledged event except progress records no later acknowledged
// durable append covers: fsync-on acks of durable events are never
// lost, torn records are never replayed, and the snapshot rename (with
// its parent-directory fsync) is atomic.
func TestCrashEnumerationDurable(t *testing.T) {
	variants := []struct {
		name string
		opts []FileOption
	}{
		{"fsync", []FileOption{WithFsync()}},
		{"group", []FileOption{WithGroupCommit()}},
	}
	workloads := []struct {
		name string
		evs  []Event
	}{
		{"workload", workloadEvents()},
		{"progress-tail", progressTailEvents()},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, w := range workloads {
				t.Run(w.name, func(t *testing.T) {
					// Fault-free run: establishes the boundary count and that the
					// workload itself is sound.
					mem := faultfs.NewMem()
					inj := faultfs.NewInjector(mem)
					acked, _, err := runCrashEvents(inj, v.opts, w.evs)
					if err != nil {
						t.Fatalf("fault-free run: %v", err)
					}
					if acked != len(w.evs) {
						t.Fatalf("fault-free run acked %d of %d", acked, len(w.evs))
					}
					total := inj.Ops()
					if total < durableFloor(w.evs, len(w.evs)) {
						t.Fatalf("implausible boundary count %d", total)
					}
					assertRecoversEvents(t, mem.Crash(faultfs.CrashDropUnsynced), w.evs, durableFloor(w.evs, acked), acked, "fault-free")

					for c := 1; c <= total; c++ {
						for _, mode := range faultfs.CrashModes {
							mem := faultfs.NewMem()
							inj := faultfs.NewInjector(mem, faultfs.CrashAt(c))
							acked, attempted, err := runCrashEvents(inj, v.opts, w.evs)
							if err == nil {
								t.Fatalf("crash point %d: workload finished without crashing", c)
							}
							img := mem.Crash(mode)
							ctx := fmt.Sprintf("%s/%s/crash-at-%d/%s", v.name, w.name, c, mode)
							// Lower bound: every acked event survives, trailing
							// progress aside. Upper bound: at most the in-flight
							// append can additionally surface.
							assertRecoversEvents(t, img, w.evs, durableFloor(w.evs, acked), attempted, ctx)
						}
					}
				})
			}
		})
	}
}

// TestCrashEnumerationNosync covers the default (no-fsync) mode,
// whose contract is process-crash durability only: the page cache
// survives a dead process, which is exactly CrashKeepUnsynced. There
// the recovery must be the fold of precisely the acked events — the
// journal acknowledges only after the line is fully written.
func TestCrashEnumerationNosync(t *testing.T) {
	mem := faultfs.NewMem()
	inj := faultfs.NewInjector(mem)
	acked, _, err := runCrashWorkload(inj, nil)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	if acked != len(workloadEvents()) {
		t.Fatalf("fault-free run acked %d of %d", acked, len(workloadEvents()))
	}
	total := inj.Ops()

	for c := 1; c <= total; c++ {
		mem := faultfs.NewMem()
		inj := faultfs.NewInjector(mem, faultfs.CrashAt(c))
		acked, _, err := runCrashWorkload(inj, nil)
		if err == nil {
			t.Fatalf("crash point %d: workload finished without crashing", c)
		}
		img := mem.Crash(faultfs.CrashKeepUnsynced)
		assertRecoversPrefix(t, img, acked, acked, fmt.Sprintf("nosync/crash-at-%d", c))
	}
}
