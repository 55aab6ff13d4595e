package rtm

import "github.com/emlrtm/emlrtm/internal/sim"

// minEnergyAssign is the race-to-idle strategy (the "minenergy" built-in):
// meet each requirement at the minimal model level, always clocking the
// hosting cluster at its maximum OPP so the job finishes as fast as
// possible and the cores spend the rest of the frame idle. Among feasible
// race points it picks the one with the least average dynamic power. It is
// the classic embedded energy policy the paper's pacing heuristic argues
// against under a CV²f power model — registering it makes that argument
// measurable: a fleet sweep puts pacing and racing side by side on
// identical workloads.
func minEnergyAssign(v *View, st *planState, sc *planScratch, a *sim.AppInfo, out *Assignment) {
	req := v.req(a)
	// Pass 1: minimal level meeting the accuracy floor, raced to idle.
	minLevel := minLevelMeeting(a, req.MinAccuracy)
	if a.Profile.Levels[minLevel-1].Accuracy >= req.MinAccuracy {
		sc.levels = append(sc.levels[:0], minLevel)
		if raceBest(v, st, sc, a, req, sc.levels) {
			st.commit(a, &sc.best, 1, out)
			return
		}
	}
	// Pass 2: accuracy relaxed — the cheapest feasible race point wins
	// outright (smaller levels draw less, so this walks levels upward and
	// stops improving once energy rises).
	sc.levels = sc.levels[:0]
	for l := 1; l <= a.Profile.MaxLevel(); l++ {
		sc.levels = append(sc.levels, l)
	}
	if raceBest(v, st, sc, a, req, sc.levels) {
		st.commit(a, &sc.best, 2, out)
		return
	}
	// Pass 3: best effort — minimise latency under the power budget only.
	sc.levels = descendingLevels(a, sc.levels)
	if heuristicBest(v, st, sc, a, req, sc.levels, true) {
		st.commit(a, &sc.best, 3, out)
		return
	}
	park(st, a, out)
}

// raceBest enumerates candidates pinned to each cluster's maximum OPP
// (race-to-idle) and reports whether any was feasible, leaving the
// minimum-average-power one in sc.best. Like heuristicBest it evaluates
// into sc.try and copies only an improvement. levels may alias sc.levels;
// only sc.opts is consumed.
func raceBest(v *View, st *planState, sc *planScratch, a *sim.AppInfo, req Requirement, levels []int) bool {
	c, best := &sc.try, &sc.best
	found := false
	for ci, cl := range v.Platform.Clusters {
		sc.opts = coreOptions(cl, st, ci, sc.opts)
		for _, cores := range sc.opts {
			for _, level := range levels {
				if evalCandidate(st, a, req, cl, ci, cores, level, len(cl.OPPs)-1, false, c) != feasible {
					continue
				}
				if !found || c.dynPowMW < best.dynPowMW {
					*best = *c
					found = true
				}
			}
		}
	}
	return found
}
