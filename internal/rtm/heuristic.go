package rtm

import "github.com/emlrtm/emlrtm/internal/sim"

// heuristicAssign is the paper's runtime manager strategy (the
// "heuristic" built-in), extracted verbatim from the pre-policy Manager
// (the fleet golden report pins it byte-for-byte). It finds the best
// operating point for one app given the ledger, and commits the
// resources.
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
// minEnergyAssign, which races).
func heuristicAssign(v *View, st *planState, sc *planScratch, a *sim.AppInfo, out *Assignment) {
	req := v.req(a)
	minLevel := minLevelMeeting(a, req.MinAccuracy)

	// Pass 1: exactly the minimal level meeting the accuracy requirement.
	if a.Profile.Levels[minLevel-1].Accuracy >= req.MinAccuracy {
		sc.levels = append(sc.levels[:0], minLevel)
		if heuristicBest(v, st, sc, a, req, sc.levels, false) {
			st.commit(a, &sc.best, 1, out)
			return
		}
	}
	// Pass 2: accuracy relaxed — maximise accuracy among feasible points.
	sc.levels = descendingLevels(a, sc.levels)
	if heuristicBest(v, st, sc, a, req, sc.levels, false) {
		st.commit(a, &sc.best, 2, out)
		return
	}
	// Pass 3: best effort — minimise latency subject to the power budget.
	if heuristicBest(v, st, sc, a, req, sc.levels, true) {
		st.commit(a, &sc.best, 3, out)
		return
	}
	// Nothing fits at all (power budget exhausted).
	park(st, a, out)
}

// heuristicBest enumerates feasible candidates over the level list and
// reports whether any was found, leaving the winner in sc.best. Each
// candidate is evaluated into sc.try and copied to sc.best only when it
// beats it. In best-effort mode latency/duty feasibility is dropped; only
// power, cores and memory bind, and the objective becomes minimum
// latency. levels may alias sc.levels; only sc.opts is consumed.
func heuristicBest(v *View, st *planState, sc *planScratch, a *sim.AppInfo, req Requirement, levels []int, bestEffort bool) bool {
	c, best := &sc.try, &sc.best
	found := false
	better := func() bool {
		if !found {
			return true
		}
		// Hysteresis: candidates keeping the current placement and level
		// get a 5% cost discount to avoid migration churn.
		cost := func(x *candidate) float64 {
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
					oppIdx, ok = chooseOPP(st, ci, st.oppNeed[ci], cores, a.Profile.Levels[level-1].MACs, req.MaxLatencyS)
				}
				if !ok || evalCandidate(st, a, req, cl, ci, cores, level, oppIdx, bestEffort, c) != feasible {
					continue
				}
				if better() {
					*best = *c
					found = true
				}
			}
		}
	}
	return found
}
