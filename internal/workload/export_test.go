package workload

import (
	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// RunThrough is the stack's run path with the engine seeing the stack's
// scripted controller only through wrap: logEvents keeps the event log
// and logf receives the decision log, as in the package Run.
func (st *Stack) RunThrough(s *Scenario, plat *hw.Platform, tickS float64, logf func(string, ...any), logEvents bool,
	wrap func(*ScenarioController) sim.Controller) (*sim.Engine, *rtm.Manager, sim.Report, error) {
	if err := st.setup(s, logf); err != nil {
		return nil, nil, sim.Report{}, err
	}
	return st.start(sim.Config{Platform: plat, Apps: s.Apps, Controller: wrap(&st.ctrl), TickS: tickS, LogEvents: logEvents}, s.EndS)
}

// Applied returns how many scripted steps c has applied.
func (c *ScenarioController) Applied() int { return c.next }
