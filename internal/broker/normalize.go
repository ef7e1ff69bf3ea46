package broker

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
//     contradictions), an empty one becomes "auto", and the result is
//     written back to BOTH fields — downstream code and the cache key
//     see a single spelling no matter which alias the caller used.
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
		req.Solver.Strategy = "auto"
	}
	req.Strategy = req.Solver.Strategy
	return req
}

// cacheKey is the content address of a normalized Recommend request:
// a SHA-256 over the binary form of everything the answer depends on —
// the catalog epoch, the parameter source epoch (when exposed) and every
// semantic request field, strings and maps led by their size, numbers
// fixed-width, so no two requests share an encoding. Anything that could
// change the answer must change the key: that single property is the
// result cache's whole invalidation story.
func (e *Engine) cacheKey(req Request) string {
	k := keyBuf(make([]byte, 0, 128+96*len(req.Base.Components)))
	k.str("recommend/v2")
	k.u64(e.catalog.Epoch())
	if epoch, ok := e.ParamsEpoch(); ok {
		k.u64(epoch)
	}
	k.str(req.Base.Name)
	k.str(req.Base.Provider)
	k.u64(uint64(len(req.Base.Components)))
	for _, c := range req.Base.Components {
		k.str(c.Name)
		k.u64(uint64(c.Layer))
		k.u64(uint64(c.ActiveNodes))
		k.str(c.Class)
	}
	k.u64(math.Float64bits(req.SLA.UptimePercent))
	k.u64(uint64(req.SLA.Penalty.PerHour))
	// A nil as-is plan (no incumbent) and an empty one (an all-baseline
	// incumbent) are different requests: a plan's size is offset by one.
	if req.AsIs == nil {
		k.u64(0)
	} else {
		k.u64(uint64(len(req.AsIs)) + 1)
	}
	for _, name := range sortedKeys(req.AsIs) {
		k.str(name)
		k.str(req.AsIs[name])
	}
	// Nil and empty menus both leave every component unrestricted.
	k.u64(uint64(len(req.AllowedTechs)))
	for _, name := range sortedKeys(req.AllowedTechs) {
		k.str(name)
		k.u64(uint64(len(req.AllowedTechs[name])))
		for _, id := range req.AllowedTechs[name] {
			k.str(id)
		}
	}
	k.str(req.Strategy)
	// The budget is hashed only when set, so a nested spelling that
	// only names a strategy stays byte-identical to the flat spelling's
	// address. Being last and fixed-width, it needs no marker.
	if b := req.Solver.Budget; !b.IsZero() {
		k.u64(uint64(b.Wall))
		k.u64(uint64(b.MaxEvaluations))
	}
	sum := sha256.Sum256(k)
	return hex.EncodeToString(sum[:])
}

// keyBuf accumulates cacheKey's binary form.
type keyBuf []byte

func (k *keyBuf) u64(v uint64) { *k = binary.LittleEndian.AppendUint64(*k, v) }
func (k *keyBuf) str(s string) { k.u64(uint64(len(s))); *k = append(*k, s...) }

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
