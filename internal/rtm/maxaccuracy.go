package rtm

import "github.com/emlrtm/emlrtm/internal/sim"

// maxAccuracyPolicy runs every DNN at the highest configuration that
// still meets its deadline — energy-blind. It is the quality-first end of
// the policy spectrum (Taylor et al.'s "most accurate model that fits the
// budget" selection rule): accuracy floors are treated as soft minima to
// exceed, not targets to hit cheaply, and within a placement the policy
// clocks as fast as the thermal budget allows so the largest possible
// level fits. Latency deadlines, accelerator duty/memory and the thermal
// power budget still bind — the policy is aggressive, not unsafe.
type maxAccuracyPolicy struct{ epochKeyed }

// Name implements Policy.
func (maxAccuracyPolicy) Name() string { return "maxaccuracy" }

// Plan implements Policy.
func (maxAccuracyPolicy) Plan(v View) []Assignment {
	return pooledPlan(&v, maxAccuracyAssign)
}

// planInto implements scratchPlanner: the Manager's allocation-free path.
func (maxAccuracyPolicy) planInto(v *View, sc *planScratch) []Assignment {
	return planWith(v, sc, maxAccuracyAssign)
}

func maxAccuracyAssign(v *View, st *planState, sc *planScratch, a *sim.AppInfo) Assignment {
	req := v.req(a)
	// Pass 1: the highest feasible level, ranked accuracy-first. For each
	// (cluster, cores, level) the fastest OPP that fits both the latency
	// budget and the remaining power budget is taken — racing upward in
	// frequency buys headroom for bigger levels, and the policy does not
	// care what that costs in energy. The downward scan ends at the first
	// memory, latency or duty failure, which every slower OPP shares; only
	// a power failure can clear lower down.
	sc.levels = descendingLevels(a, sc.levels)
	var best candidate
	found := false
	for ci, cl := range v.Platform.Clusters {
		sc.opts = coreOptions(cl, st, ci, sc.opts)
		for _, cores := range sc.opts {
			for _, level := range sc.levels {
				for oppIdx := len(cl.OPPs) - 1; oppIdx >= st.oppNeed[ci]; oppIdx-- {
					c, r := evalCandidate(st, a, req, cl, ci, cores, level, oppIdx, false)
					if r == overPower {
						continue // a slower OPP may draw less
					}
					if r != feasible {
						break // fails at every slower OPP too
					}
					// Highest-frequency feasible OPP for this point wins.
					if !found || c.accuracy > best.accuracy ||
						(c.accuracy == best.accuracy && c.latencyS < best.latencyS) {
						best = c
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
		return st.commit(a, best, pass)
	}
	// Pass 3: best effort — minimise latency under the power budget only.
	if c, ok := heuristicBest(v, st, sc, a, req, sc.levels, true); ok {
		return st.commit(a, c, 3)
	}
	return park(st, a)
}
