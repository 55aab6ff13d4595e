package rtm

import "github.com/emlrtm/emlrtm/internal/sim"

// minEnergyPolicy is the race-to-idle strategy: meet each requirement at
// the minimal model level, always clocking the hosting cluster at its
// maximum OPP so the job finishes as fast as possible and the cores spend
// the rest of the frame idle. Among feasible race points it picks the one
// with the least average dynamic power. It is the classic embedded
// energy policy the paper's pacing heuristic argues against under a CV²f
// power model — registering it makes that argument measurable: a fleet
// sweep puts pacing and racing side by side on identical workloads.
type minEnergyPolicy struct{ epochKeyed }

// Name implements Policy.
func (minEnergyPolicy) Name() string { return "minenergy" }

// Plan implements Policy.
func (minEnergyPolicy) Plan(v View) []Assignment {
	return pooledPlan(&v, minEnergyAssign)
}

// planInto implements scratchPlanner: the Manager's allocation-free path.
func (minEnergyPolicy) planInto(v *View, sc *planScratch) []Assignment {
	return planWith(v, sc, minEnergyAssign)
}

func minEnergyAssign(v *View, st *planState, sc *planScratch, a *sim.AppInfo) Assignment {
	req := v.req(a)
	// Pass 1: minimal level meeting the accuracy floor, raced to idle.
	minLevel := minLevelMeeting(a, req.MinAccuracy)
	if a.Profile.Level(minLevel).Accuracy >= req.MinAccuracy {
		sc.levels = append(sc.levels[:0], minLevel)
		if c, ok := raceBest(v, st, sc, a, req, sc.levels); ok {
			return st.commit(a, c, 1)
		}
	}
	// Pass 2: accuracy relaxed — the cheapest feasible race point wins
	// outright (smaller levels draw less, so this walks levels upward and
	// stops improving once energy rises).
	sc.levels = sc.levels[:0]
	for l := 1; l <= a.Profile.MaxLevel(); l++ {
		sc.levels = append(sc.levels, l)
	}
	if c, ok := raceBest(v, st, sc, a, req, sc.levels); ok {
		return st.commit(a, c, 2)
	}
	// Pass 3: best effort — minimise latency under the power budget only.
	sc.levels = descendingLevels(a, sc.levels)
	if c, ok := heuristicBest(v, st, sc, a, req, sc.levels, true); ok {
		return st.commit(a, c, 3)
	}
	return park(st, a)
}

// raceBest enumerates candidates pinned to each cluster's maximum OPP
// (race-to-idle) and returns the minimum-average-power feasible one.
// levels may alias sc.levels; only sc.opts is consumed.
func raceBest(v *View, st *planState, sc *planScratch, a *sim.AppInfo, req Requirement, levels []int) (candidate, bool) {
	var best candidate
	found := false
	for ci, cl := range v.Platform.Clusters {
		sc.opts = coreOptions(cl, st, ci, sc.opts)
		for _, cores := range sc.opts {
			for _, level := range levels {
				c, r := evalCandidate(st, a, req, cl, ci, cores, level, len(cl.OPPs)-1, false)
				if r != feasible {
					continue
				}
				if !found || c.dynPowMW < best.dynPowMW {
					best = c
					found = true
				}
			}
		}
	}
	return best, found
}
