package optimize

import "math"

// flatMetIndex is the production superset index: the met-trie of
// metindex.go rebuilt as a flat, array-indexed arena. Nodes live in
// one contiguous struct-of-arrays store — child edges are int32
// indices into a single bump-allocated edge arena, terminal flags are
// packed bits — so insert never calls new(metNode) and covers never
// chases heap pointers: a lookup is an iterative descent over int32
// slices with perfect locality and zero steady-state heap allocations
// (a property the allocation tests pin, like the evaluation loop's).
//
// Node 0 is the root. Edge slot 0 doubles as "no child" — the root is
// never anyone's child — so freshly grown edge blocks need no
// initialization beyond the zeroing append already performs.
//
// Lookup state lives in a flatWalker, not the index: the arena
// itself is read-only between inserts. Each insert bumps an epoch so
// the walker can tell when its checkpoints went stale.
type flatMetIndex struct {
	arity    []int    // variants per component, sizing edge blocks
	kidsOff  []int32  // per node: offset of its edge block, -1 = none
	terminal []uint64 // packed per-node terminal bits
	edges    []int32  // edge arena; edges[kidsOff[n]+v] = child, 0 = none
	epoch    uint64   // bumped per insert; walkers invalidate on change
	minLevel int      // fewest clustered components of any stored assignment

	// w is the sequential owner's walker, so the index satisfies
	// coverIndex directly; concurrent readers take newWalker.
	w flatWalker
}

func newFlatMetIndex(p *Problem) *flatMetIndex {
	arity := make([]int, len(p.Components))
	for i, comp := range p.Components {
		arity[i] = len(comp.Variants)
	}
	ix := &flatMetIndex{
		arity:    arity,
		kidsOff:  make([]int32, 1, 1024), // node 0: the root, no children yet
		terminal: make([]uint64, 1, 16),
		minLevel: math.MaxInt,
	}
	ix.kidsOff[0] = -1
	ix.w = *ix.newWalker()
	return ix
}

func (ix *flatMetIndex) isTerminal(n int32) bool {
	return ix.terminal[n>>6]&(1<<(n&63)) != 0
}

func (ix *flatMetIndex) setTerminal(n int32) {
	ix.terminal[n>>6] |= 1 << (n & 63)
}

// newNode bump-allocates one node into the arena.
func (ix *flatMetIndex) newNode() int32 {
	id := int32(len(ix.kidsOff))
	ix.kidsOff = append(ix.kidsOff, -1)
	if int(id>>6) >= len(ix.terminal) {
		ix.terminal = append(ix.terminal, 0)
	}
	return id
}

// insert records one SLA-meeting assignment, trailing-zero compressed
// exactly like the pointer trie: the node for the last clustered
// component becomes terminal and its subtree (supersets only) is
// detached. Covered inserts exit early; the searches never produce
// them, but the index stays correct for callers that do.
func (ix *flatMetIndex) insert(a Assignment) {
	last, level := -1, 0
	for i, v := range a {
		if v != 0 {
			last = i
			level++
		}
	}
	n := int32(0)
	for i := 0; i <= last; i++ {
		if ix.isTerminal(n) {
			return
		}
		off := ix.kidsOff[n]
		if off < 0 {
			off = int32(len(ix.edges))
			ix.kidsOff[n] = off
			// Grow one zeroed edge block in place; append's fresh
			// memory is already zero and zero means "no child".
			need := len(ix.edges) + ix.arity[i]
			if need <= cap(ix.edges) {
				ix.edges = ix.edges[:need]
				clear(ix.edges[off:need])
			} else {
				ix.edges = append(ix.edges, make([]int32, ix.arity[i])...)
			}
		}
		child := ix.edges[off+int32(a[i])]
		if child == 0 {
			child = ix.newNode()
			ix.edges[off+int32(a[i])] = child
		}
		n = child
	}
	ix.setTerminal(n)
	ix.kidsOff[n] = -1 // detach the superset subtree, as the pointer trie does
	if level < ix.minLevel {
		ix.minLevel = level
	}
	ix.epoch++
}

// coversFrom satisfies coverIndex on the index's own walker.
func (ix *flatMetIndex) coversFrom(a Assignment, from int) bool {
	return ix.w.coversFrom(a, from)
}

// flatWalker is checkpointed lookup state over a flatMetIndex: the
// explicit frontier stack of one covers descent, kept between lookups
// the same way a Cursor keeps its fold checkpoints. frontier d — the
// trie nodes reachable by matching digits 0..d-1 — depends only on
// a's prefix of length d, so when the caller reports that digits
// below `from` are unchanged since the previous lookup, the walk
// resumes from frontier from instead of re-descending from the root.
// The level enumeration changes only a suffix between consecutive
// leaves, which amortizes lookups exactly like Cursor.Advance
// amortizes re-folding.
//
// Checkpoints are sound only against the trie they were computed on:
// every insert bumps the index epoch and a stale walker restarts from
// the root on its next lookup, so the immediate-insert level walk
// stays exact without any argument about what the new assignment can
// or cannot cover.
//
// A walker is single-goroutine state. The zero-allocation steady
// state is reached once the frontier buffer has grown to the
// instance's high-water mark; allocation tests pin it at 0 allocs/op.
type flatWalker struct {
	ix    *flatMetIndex
	epoch uint64

	// buf holds the frontiers back to back: frontier d occupies
	// buf[off[d]:off[d+1]] for every d <= valid.
	buf   []int32
	off   []int32
	valid int
}

// newWalker returns a fresh walker over the index: the arena is
// shared, the walk state is not.
func (ix *flatMetIndex) newWalker() *flatWalker {
	w := &flatWalker{
		ix:    ix,
		epoch: ix.epoch,
		buf:   make([]int32, 1, 256),
		off:   make([]int32, len(ix.arity)+2),
	}
	w.buf[0] = 0 // frontier 0 is always {root}
	w.off[1] = 1
	return w
}

// coversFrom reports whether any inserted assignment covers a,
// resuming from depth `from` when the walker's checkpoints allow it
// (see coverIndex.coversFrom for the caller's promise).
//
// A covering assignment clusters a subset of a's components, so it
// sits at a level at or below a's — and at exactly a's level only a
// itself covers a. The walker exploits both facts before touching the
// frontier: queries below the minimum stored level answer false
// outright, and queries at it reduce to an O(n) exact-path descent.
// That second shortcut is what keeps lookups cheap in the one regime
// where checkpoints cannot help — the first SLA-met level, where every
// leaf's insert bumps the epoch and would otherwise force a full
// frontier rebuild on the next lookup (the level search's met level).
func (w *flatWalker) coversFrom(a Assignment, from int) bool {
	ix := w.ix
	level, last := 0, -1
	for i, v := range a {
		if v != 0 {
			level++
			last = i
		}
	}
	if level <= ix.minLevel {
		// The shortcuts below don't recompute frontiers, so any
		// checkpoints now describe an older query's prefix and must
		// not be resumed by a later hinted call.
		w.valid = 0
		if level < ix.minLevel {
			return false
		}
		n := int32(0)
		for i := 0; i <= last; i++ {
			if ix.isTerminal(n) {
				return true // stored proper subset on the path
			}
			off := ix.kidsOff[n]
			if off < 0 {
				return false
			}
			n = ix.edges[off+int32(a[i])]
			if n == 0 {
				return false
			}
		}
		return ix.isTerminal(n)
	}
	if w.epoch != ix.epoch {
		// The trie grew since the checkpoints were taken; only
		// frontier 0 ({root}) survives.
		w.epoch = ix.epoch
		w.valid = 0
	}
	d := from
	if d > w.valid {
		d = w.valid
	}
	for {
		f := w.buf[w.off[d]:w.off[d+1]]
		for _, n := range f {
			if ix.isTerminal(n) {
				w.valid = d
				return true
			}
		}
		if len(f) == 0 || d == len(a) {
			w.valid = d
			return false
		}
		// Build frontier d+1 in place: each node contributes its
		// baseline child and, when a clusters component d, the
		// matching variant child. Children are unique (each node has
		// one parent), so the frontier never holds duplicates.
		w.buf = w.buf[:w.off[d+1]]
		v := int32(a[d])
		for _, n := range f {
			off := ix.kidsOff[n]
			if off < 0 {
				continue
			}
			if c := ix.edges[off]; c != 0 {
				w.buf = append(w.buf, c)
			}
			if v != 0 {
				if c := ix.edges[off+v]; c != 0 {
					w.buf = append(w.buf, c)
				}
			}
		}
		d++
		w.off[d+1] = int32(len(w.buf))
	}
}

// flatRescanIndex runs the flat arena without checkpoint reuse: every
// lookup re-descends from the root. It exists so the benchmarks can
// split the arena-layout win from the checkpointed-walk win
// (solver/pruned-flat vs solver/pruned in benchreport).
type flatRescanIndex struct {
	ix *flatMetIndex
}

func (r flatRescanIndex) insert(a Assignment) { r.ix.insert(a) }

func (r flatRescanIndex) coversFrom(a Assignment, _ int) bool {
	return r.ix.w.coversFrom(a, 0)
}
