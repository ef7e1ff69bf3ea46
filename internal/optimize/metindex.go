package optimize

// coverIndex answers the pruned search's superset question: has any
// recorded SLA-meeting assignment m with coveredBy(m, a)? All three
// implementations — the linear reference scan, the pointer-linked trie
// and the flat arena trie (flatindex.go) — satisfy exactly the same
// contract, so the searches built on them report identical
// Evaluated/Skipped/CoverLookups/Clipped accounting, which the
// three-way equivalence tests pin.
type coverIndex interface {
	// insert records one SLA-meeting assignment.
	insert(a Assignment)

	// coversFrom reports whether any recorded assignment is a
	// clustered subset of a (same variant wherever the subset
	// clusters). from is a resume hint: the caller promises that a's
	// digits below from are unchanged since its previous coversFrom
	// call on this index (from = 0 promises nothing). Implementations
	// without lookup state ignore it; the checkpointed flat walker
	// uses it to skip re-descending the unchanged prefix.
	coversFrom(a Assignment, from int) bool
}

// linearIndex is the original O(|met|)-per-leaf scan, kept as the
// reference implementation: the equivalence tests pin the tries to it
// and the solver benchmarks quantify the gap on SLA-dense instances.
//
// Inserted assignments are copied into one shared backing arena
// (amortized-doubling append) instead of one Clone allocation per met
// assignment, so the reference path's benchmark numbers measure the
// scan, not allocator noise. A backing reallocation leaves earlier met
// views aliasing the previous array — harmless, because the copies are
// immutable once inserted.
type linearIndex struct {
	met     []Assignment
	backing []int
}

func (ix *linearIndex) insert(a Assignment) {
	start := len(ix.backing)
	ix.backing = append(ix.backing, a...)
	ix.met = append(ix.met, Assignment(ix.backing[start:len(ix.backing):len(ix.backing)]))
}

func (ix *linearIndex) coversFrom(a Assignment, _ int) bool {
	for _, m := range ix.met {
		if coveredBy(m, a) {
			return true
		}
	}
	return false
}

// metIndex is a trie over met assignments keyed on the clustered-
// component choices, one level per decision dimension. A lookup walks
// only the paths consistent with the queried assignment: at depth i it
// may descend into child 0 ("the subset leaves component i at the
// baseline", compatible with anything) and child a[i] ("the subset
// clusters component i the same way", only when a clusters i at all).
// The cost is bounded by the consistent portion of the trie instead of
// the full met list, which is what collapses the quadratic blow-up the
// linear scan hits when many low-level assignments meet the SLA.
//
// Inserted assignments are trailing-zero compressed: a node whose
// remaining components are all baseline is marked terminal instead of
// growing a chain of zero children, so lookups covered by a low-level
// subset exit near the root.
//
// This pointer-linked layout is the previous production index, kept as
// an equivalence oracle and as the benchmark reference the
// trie_flat_speedup ratios measure the flat arena (flatindex.go)
// against. Lookups reuse an explicit stack owned by the index, so —
// unlike the old recursive walk — deep instances cannot grow the
// goroutine stack per lookup, at the price of covers no longer being
// safe for concurrent use.
type metIndex struct {
	arity []int // variants per component, sizing child slices
	root  *metNode

	// stack is the reusable DFS stack of coversFrom; it keeps its
	// grown capacity across lookups so the steady state allocates
	// nothing.
	stack []metFrame
}

type metNode struct {
	// terminal marks a stored assignment whose non-baseline choices are
	// all at depths above this node.
	terminal bool

	// children[v] continues the walk with variant v chosen for the
	// node's component; nil slices and entries are allocated lazily.
	children []*metNode
}

// metFrame is one pending branch of the iterative covers descent.
type metFrame struct {
	n     *metNode
	depth int
}

func newMetIndex(p *Problem) *metIndex {
	arity := make([]int, len(p.Components))
	for i, comp := range p.Components {
		arity[i] = len(comp.Variants)
	}
	return &metIndex{arity: arity, root: &metNode{}}
}

func (ix *metIndex) insert(a Assignment) {
	// Depth of the last clustered component; everything after it is
	// baseline and compresses into the terminal flag.
	last := -1
	for i, v := range a {
		if v != 0 {
			last = i
		}
	}
	n := ix.root
	for i := 0; i <= last; i++ {
		if n.terminal {
			// An already-stored subset covers this assignment; storing
			// the superset would only slow lookups down. (The pruned
			// searches never insert covered assignments, but the index
			// stays correct for callers that do.)
			return
		}
		if n.children == nil {
			n.children = make([]*metNode, ix.arity[i])
		}
		child := n.children[a[i]]
		if child == nil {
			child = &metNode{}
			n.children[a[i]] = child
		}
		n = child
	}
	n.terminal = true
	// Subtrees below a terminal node are supersets of it; drop them.
	n.children = nil
}

func (ix *metIndex) coversFrom(a Assignment, _ int) bool {
	stack := append(ix.stack[:0], metFrame{ix.root, 0})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.n.terminal {
			ix.stack = stack
			return true
		}
		if f.n.children == nil || f.depth == len(a) {
			continue
		}
		// Push the variant branch first so the baseline branch pops
		// first, preserving the recursive walk's visit order.
		if v := a[f.depth]; v != 0 {
			if c := f.n.children[v]; c != nil {
				stack = append(stack, metFrame{c, f.depth + 1})
			}
		}
		if c := f.n.children[0]; c != nil {
			stack = append(stack, metFrame{c, f.depth + 1})
		}
	}
	ix.stack = stack
	return false
}
