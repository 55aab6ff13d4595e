package rtm

import "github.com/emlrtm/emlrtm/internal/sim"

// maxAccuracyAssign (the "maxaccuracy" built-in) runs every DNN at the
// highest configuration that still meets its deadline — energy-blind. It is
// the quality-first end of the policy spectrum (Taylor et al.'s "most
// accurate model that fits the budget" selection rule): accuracy floors are
// treated as soft minima to exceed, not targets to hit cheaply, and within
// a placement the policy clocks as fast as the thermal budget allows so the
// largest possible level fits. Latency deadlines, accelerator duty/memory
// and the thermal power budget still bind — the policy is aggressive, not
// unsafe.
func maxAccuracyAssign(v *View, st *planState, sc *planScratch, a *sim.AppInfo, out *Assignment) {
	req := v.req(a)
	// Pass 1: the highest feasible level, ranked accuracy-first. For each
	// (cluster, cores, level) the fastest OPP that fits both the latency
	// budget and the remaining power budget is taken — racing upward in
	// frequency buys headroom for bigger levels, and the policy does not
	// care what that costs in energy. The downward scan ends at the first
	// memory, latency or duty failure, which every slower OPP shares; only
	// a power failure can clear lower down.
	sc.levels = descendingLevels(a, sc.levels)
	c, best := &sc.try, &sc.best
	found := false
	for ci, cl := range v.Platform.Clusters {
		sc.opts = coreOptions(cl, st, ci, sc.opts)
		for _, cores := range sc.opts {
			for _, level := range sc.levels {
				for oppIdx := len(cl.OPPs) - 1; oppIdx >= st.oppNeed[ci]; oppIdx-- {
					r := evalCandidate(st, a, req, cl, ci, cores, level, oppIdx, false, c)
					if r == overPower {
						continue // a slower OPP may draw less
					}
					if r != feasible {
						break // fails at every slower OPP too
					}
					// Highest-frequency feasible OPP for this point wins.
					if !found || c.accuracy > best.accuracy ||
						(c.accuracy == best.accuracy && c.latencyS < best.latencyS) {
						*best = *c
						found = true
					}
					break
				}
			}
		}
	}
	if found {
		pass := 1
		if best.accuracy < req.MinAccuracy {
			pass = 2 // even the best feasible level sits below the floor
		}
		st.commit(a, best, pass, out)
		return
	}
	// Pass 3: best effort — minimise latency under the power budget only.
	if heuristicBest(v, st, sc, a, req, sc.levels, true) {
		st.commit(a, &sc.best, 3, out)
		return
	}
	park(st, a, out)
}
