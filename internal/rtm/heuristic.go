package rtm

import "github.com/emlrtm/emlrtm/internal/sim"

// heuristicPolicy is the paper's runtime manager strategy, extracted
// verbatim from the pre-policy Manager (the fleet golden report pins it
// byte-for-byte).
//
// Per app, in priority order:
//
//	pass 1: place the *minimal* model level whose accuracy meets the
//	        requirement, at the cheapest (average dynamic power) feasible
//	        (cluster, cores, min-OPP) point meeting the latency budget,
//	        accelerator duty, accelerator memory and the thermal power
//	        budget;
//	pass 2: if no such point exists, relax the accuracy requirement and
//	        maximise accuracy among feasible points (the paper's
//	        "dynamically compressed, trading accuracy");
//	pass 3: if still nothing, run best-effort: minimise latency subject to
//	        the power budget only (deadlines may be missed, thermal safety
//	        is preserved).
//
// DVFS pacing: within a feasible point the lowest OPP meeting the budget
// wins — pacing beats race-to-idle under a CV²f power model (contrast
// minEnergyPolicy, which races).
type heuristicPolicy struct{ epochKeyed }

// Name implements Policy.
func (heuristicPolicy) Name() string { return "heuristic" }

// Plan implements Policy.
func (heuristicPolicy) Plan(v View) []Assignment {
	return pooledPlan(&v, heuristicAssign)
}

// planInto implements scratchPlanner: the Manager's allocation-free path.
func (heuristicPolicy) planInto(v *View, sc *planScratch) []Assignment {
	return planWith(v, sc, heuristicAssign)
}

// heuristicAssign finds the best operating point for one app given the
// ledger, and commits the resources.
func heuristicAssign(v *View, st *planState, sc *planScratch, a *sim.AppInfo) Assignment {
	req := v.req(a)
	minLevel := minLevelMeeting(a, req.MinAccuracy)

	// Pass 1: exactly the minimal level meeting the accuracy requirement.
	if a.Profile.Level(minLevel).Accuracy >= req.MinAccuracy {
		sc.levels = append(sc.levels[:0], minLevel)
		if c, ok := heuristicBest(v, st, sc, a, req, sc.levels, false); ok {
			return st.commit(a, c, 1)
		}
	}
	// Pass 2: accuracy relaxed — maximise accuracy among feasible points.
	sc.levels = descendingLevels(a, sc.levels)
	if c, ok := heuristicBest(v, st, sc, a, req, sc.levels, false); ok {
		return st.commit(a, c, 2)
	}
	// Pass 3: best effort — minimise latency subject to the power budget.
	if c, ok := heuristicBest(v, st, sc, a, req, sc.levels, true); ok {
		return st.commit(a, c, 3)
	}
	// Nothing fits at all (power budget exhausted).
	return park(st, a)
}

// heuristicBest enumerates feasible candidates over the level list and
// returns the winner. In best-effort mode latency/duty feasibility is
// dropped; only power, cores and memory bind, and the objective becomes
// minimum latency. levels may alias sc.levels; only sc.opts is consumed.
func heuristicBest(v *View, st *planState, sc *planScratch, a *sim.AppInfo, req Requirement, levels []int, bestEffort bool) (candidate, bool) {
	var best candidate
	found := false
	better := func(c candidate) bool {
		if !found {
			return true
		}
		// Hysteresis: candidates keeping the current placement and level
		// get a 5% cost discount to avoid migration churn.
		cost := func(x candidate) float64 {
			v := x.dynPowMW
			if bestEffort {
				v = x.latencyS * 1000
			}
			if x.placement == a.Placement && x.level == a.Level {
				v *= 0.95
			}
			return v
		}
		if !bestEffort && c.accuracy != best.accuracy {
			return c.accuracy > best.accuracy
		}
		return cost(c) < cost(best)
	}
	for ci, cl := range v.Platform.Clusters {
		sc.opts = coreOptions(cl, st, ci, sc.opts)
		for _, cores := range sc.opts {
			for _, level := range levels {
				oppIdx, ok := len(cl.OPPs)-1, true
				if !bestEffort {
					oppIdx, ok = chooseOPP(st, ci, st.oppNeed[ci], cores, a.Profile.Level(level).MACs, req.MaxLatencyS)
				}
				if !ok {
					continue
				}
				c, r := evalCandidate(st, a, req, cl, ci, cores, level, oppIdx, bestEffort)
				if r != feasible {
					continue
				}
				if better(c) {
					best = c
					found = true
				}
			}
		}
	}
	return best, found
}
