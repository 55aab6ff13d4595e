package rtm

import (
	"fmt"

	"github.com/emlrtm/emlrtm/internal/sim"
)

// Ondemand thresholds: a cluster jumps to its top OPP once its utilisation
// reaches ondemandUpUtil and steps down one OPP while below
// ondemandDownUtil.
const (
	ondemandUpUtil   = 0.80
	ondemandDownUtil = 0.30
)

// GovernorController drives every cluster with the classic Linux ondemand
// DVFS governor and nothing else: no task mapping, no model scaling. It
// sees only hardware load, not application requirements — the prior art
// the paper cites (Section V: "a variety of online resource management
// approaches have been proposed, such as DVFS") and its "existing
// approaches optimise hardware behaviour ... application requirements are
// not addressed" baseline (ablation A3). It polls by design: ondemand
// samples the load every epoch, so it is no sim.Waker and the engine
// calls OnTick on every tick.
type GovernorController struct{}

// NewGovernorController builds the baseline controller.
func NewGovernorController() *GovernorController { return &GovernorController{} }

// ondemandOPP returns the next OPP index given a cluster's utilisation
// (0..1), its current OPP index, and the ladder length.
func ondemandOPP(util float64, cur, n int) int {
	switch {
	case util >= ondemandUpUtil:
		return n - 1
	case util < ondemandDownUtil && cur > 0:
		return cur - 1
	}
	return cur
}

// OnTick implements sim.Controller.
func (c *GovernorController) OnTick(e *sim.Engine) {
	for _, cl := range e.Platform().Clusters {
		info, err := e.Cluster(cl.Name)
		if err != nil {
			continue
		}
		next := ondemandOPP(info.Util, info.OPPIndex, len(cl.OPPs))
		if next != info.OPPIndex {
			// The engine validates the index; a failure here is a logic
			// error in the governor.
			if err := e.SetOPP(cl.Name, next); err != nil {
				panic(fmt.Sprintf("rtm: governor actuation: %v", err))
			}
		}
	}
}

// OnEvent implements sim.Controller (governors are event-blind).
func (c *GovernorController) OnEvent(e *sim.Engine, ev sim.Event) {}

var _ sim.Controller = (*GovernorController)(nil)
