package broker

import (
	"fmt"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/topology"
)

// NoHALabel is the variant label of the "no HA" baseline choice.
const NoHALabel = "none"

// compiled carries the optimization problem together with the metadata
// needed to translate assignments back into plans and cards.
type compiled struct {
	problem *optimize.Problem
	// techIDs[i][v] is the technology ID behind component i's variant v
	// ("" for the baseline).
	techIDs [][]string
	// names[i] is component i's name.
	names []string
}

// Compile translates a request into an optimize.Problem: for every
// component, the no-HA baseline plus one variant per allowed catalog
// technology of the component's layer, with cluster parameters drawn
// from the parameter source and prices from the provider's rate card.
// The problem is shape-checked only: the enumerating searches enforce
// optimize.MaxCandidates themselves, the frontier DP does not need it.
func (e *Engine) Compile(req Request) (*optimize.Problem, error) {
	c, err := e.compile(e.normalize(req))
	if err != nil {
		return nil, err
	}
	return c.problem, nil
}

func (e *Engine) compile(req Request) (*compiled, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	provider, err := e.catalog.Provider(req.Base.Provider)
	if err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}

	comps := make([]optimize.ComponentChoices, 0, len(req.Base.Components))
	techIDs := make([][]string, 0, len(req.Base.Components))
	names := make([]string, 0, len(req.Base.Components))

	for _, comp := range req.Base.Components {
		params, err := e.params.NodeParams(req.Base.Provider, comp.EffectiveClass())
		if err != nil {
			return nil, fmt.Errorf("broker: component %q: %w", comp.Name, err)
		}
		if err := params.Validate(); err != nil {
			return nil, fmt.Errorf("broker: component %q: %w", comp.Name, err)
		}

		techs, err := e.allowedTechs(req, comp.Name, comp.Layer)
		if err != nil {
			return nil, err
		}

		variants := make([]optimize.Variant, 0, 1+len(techs))
		ids := make([]string, 0, 1+len(techs))

		// Baseline: exactly the active nodes, no tolerance, no failover.
		variants = append(variants, optimize.Variant{
			Label: NoHALabel,
			Cluster: availability.Cluster{
				Name:            comp.Name,
				Nodes:           comp.ActiveNodes,
				Tolerated:       0,
				NodeDown:        params.Down,
				FailuresPerYear: params.FailuresPerYear,
			},
		})
		ids = append(ids, "")

		for _, tech := range techs {
			variants = append(variants, optimize.Variant{
				Label: tech.ID,
				Cluster: availability.Cluster{
					Name:            comp.Name,
					Nodes:           comp.ActiveNodes + tech.StandbyNodes,
					Tolerated:       tech.StandbyNodes,
					NodeDown:        params.Down,
					FailuresPerYear: params.FailuresPerYear,
					Failover:        tech.Failover,
				},
				MonthlyCost: tech.MonthlyCost(provider.RateCard),
			})
			ids = append(ids, tech.ID)
		}

		comps = append(comps, optimize.ComponentChoices{Name: comp.Name, Variants: variants})
		techIDs = append(techIDs, ids)
		names = append(names, comp.Name)
	}

	// The space-size cap is left to the search: exhaustive and pruned
	// enforce it, the frontier DP does not need it.
	problem := &optimize.Problem{Components: comps, SLA: req.SLA}
	if err := problem.ValidateShape(); err != nil {
		return nil, fmt.Errorf("broker: compiled problem invalid: %w", err)
	}
	return &compiled{problem: problem, techIDs: techIDs, names: names}, nil
}

// allowedTechs resolves the HA technologies in play for one component:
// the request's explicit allow-list when present (layer-checked;
// normalize has already sorted and deduplicated it, so variant order —
// and with it option numbering — is sorted by technology ID exactly
// like the unrestricted path), otherwise every catalog technology for
// the layer.
func (e *Engine) allowedTechs(req Request, name string, layer topology.Layer) ([]catalog.HATechnology, error) {
	ids, restricted := req.AllowedTechs[name]
	if !restricted {
		return e.catalog.TechnologiesForLayer(layer), nil
	}
	out := make([]catalog.HATechnology, 0, len(ids))
	for _, id := range ids {
		tech, err := e.catalog.Technology(id)
		if err != nil {
			return nil, fmt.Errorf("broker: component %q: %w", name, err)
		}
		if tech.Layer != layer {
			return nil, fmt.Errorf("broker: component %q at layer %s cannot use %q (layer %s)",
				name, layer, id, tech.Layer)
		}
		out = append(out, tech)
	}
	return out, nil
}
