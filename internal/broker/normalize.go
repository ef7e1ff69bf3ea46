package broker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"

	"uptimebroker/internal/topology"
)

// normalize returns req in canonical form: the one spelling shared by
// problem compilation and the content-addressed cache key, so two
// semantically identical requests can never compile differently or
// hash differently. Canonicalization is purely syntactic — it never
// consults the catalog — so it is cheap enough to run before a cache
// lookup:
//
//   - AllowedTechs lists are sorted and deduplicated (matching the
//     sorted order TechnologiesForLayer uses for unrestricted
//     components, so variant order — and with it option numbering —
//     no longer depends on how a caller spelled the list),
//   - component classes are resolved to their layer defaults
//     (EffectiveClass, which is what compilation prices anyway),
//   - as-is entries naming the baseline ("") are dropped: a missing
//     entry already means "no HA" (nil AsIs stays nil — no incumbent
//     at all is a different request than an all-baseline incumbent),
//   - the solver spec is canonicalized to one spelling: the deprecated
//     flat Strategy and the nested Solver.Strategy are merged (nested
//     wins when both are set; Validate has already rejected real
//     contradictions), resolved through the engine default down to
//     "auto", and written back to BOTH fields — downstream code and
//     the cache key see a single spelling no matter which alias the
//     caller used.
func (e *Engine) normalize(req Request) Request {
	if len(req.AllowedTechs) > 0 {
		at := make(map[string][]string, len(req.AllowedTechs))
		for name, ids := range req.AllowedTechs {
			sorted := append([]string(nil), ids...)
			sort.Strings(sorted)
			out := sorted[:0]
			for i, id := range sorted {
				if i == 0 || id != sorted[i-1] {
					out = append(out, id)
				}
			}
			at[name] = out
		}
		req.AllowedTechs = at
	}
	if len(req.Base.Components) > 0 {
		comps := append([]topology.Component(nil), req.Base.Components...)
		for i := range comps {
			comps[i].Class = comps[i].EffectiveClass()
		}
		req.Base.Components = comps
	}
	if req.AsIs != nil {
		asIs := make(Plan, len(req.AsIs))
		for name, id := range req.AsIs {
			if id != "" {
				asIs[name] = id
			}
		}
		req.AsIs = asIs
	}
	if req.Strategy != "" && req.Solver.Strategy != "" && req.Strategy != req.Solver.Strategy {
		// Contradicting spellings are left untouched rather than
		// silently resolved: Validate (run by compile before any
		// search) rejects the request, which is the only correct
		// answer when the caller said two different things.
		return req
	}
	if req.Solver.Strategy == "" {
		req.Solver.Strategy = req.Strategy
	}
	if req.Solver.Strategy == "" {
		req.Solver.Strategy = e.defaultStrategy
	}
	if req.Solver.Strategy == "" {
		req.Solver.Strategy = "auto"
	}
	req.Strategy = req.Solver.Strategy
	return req
}

// cacheKey is the content address of a normalized request: a stable
// hash over everything the result depends on — the catalog epoch, the
// parameter source epoch (when exposed), the result kind, and every
// semantic request field. Computing it costs one SHA-256 over a few
// hundred bytes; no compilation, no catalog lookups beyond the two
// epoch loads. Anything that could change the answer must change the
// key: that single property is the cache's whole invalidation story.
func (e *Engine) cacheKey(kind string, req Request) string {
	h := sha256.New()
	fmt.Fprintf(h, "v1|%s|cat=%d|", kind, e.catalog.Epoch())
	if epoch, ok := e.ParamsEpoch(); ok {
		fmt.Fprintf(h, "params=%d|", epoch)
	}
	fmt.Fprintf(h, "sys=%q|provider=%q|", req.Base.Name, req.Base.Provider)
	for _, comp := range req.Base.Components {
		fmt.Fprintf(h, "comp=%q,%d,%d,%q|", comp.Name, comp.Layer, comp.ActiveNodes, comp.Class)
	}
	// Floats hash by their exact bit pattern: no formatting rounding.
	fmt.Fprintf(h, "sla=%x,pen=%d|", math.Float64bits(req.SLA.UptimePercent), req.SLA.Penalty.PerHour)
	if req.AsIs != nil {
		io.WriteString(h, "asis|")
		writeSortedPairs(h, req.AsIs)
	}
	if req.AllowedTechs != nil {
		io.WriteString(h, "allowed|")
		names := make([]string, 0, len(req.AllowedTechs))
		for name := range req.AllowedTechs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "%q=", name)
			for _, id := range req.AllowedTechs[name] {
				fmt.Fprintf(h, "%q,", id)
			}
			io.WriteString(h, "|")
		}
	}
	fmt.Fprintf(h, "strategy=%q", req.Strategy)
	// The budget is hashed only when set, so a nested spelling that
	// only names a strategy stays byte-identical to the flat spelling's
	// address.
	if b := req.Solver.Budget; !b.IsZero() {
		fmt.Fprintf(h, "|budget=%d,%d", int64(b.Wall), b.MaxEvaluations)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeSortedPairs hashes a string map deterministically.
func writeSortedPairs(w io.Writer, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%q=%q|", k, m[k])
	}
}
