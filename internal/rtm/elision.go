package rtm

import "github.com/emlrtm/emlrtm/internal/sim"

// This file is the plan-reuse layer: the fingerprint seam behind replan
// elision. A fleet sweep replans thousands of times per scenario, and most
// of those replans see a planning state nothing has moved since the last
// actuated plan — skipping them is the same amortisation the paper's RTM
// applies to knob actuation.
//
// Correctness rests on a sealed, package-internal interface. A policy
// participates only by implementing it, which keeps elision opt-in for the
// built-ins (whose read-sets are known exactly) and automatically sealed
// off for third-party policies: an external Policy cannot implement an
// unexported interface, so it always plans fresh.

// PlanStats summarises one manager's plan-reuse behaviour.
type PlanStats struct {
	// Plans is the total number of Replan calls (elided ones included —
	// an elided replan still counts as a plan, exactly as before).
	Plans int `json:"plans"`
	// Elided counts replans skipped entirely because the planning
	// fingerprint was unchanged since the last actuated fixed point.
	Elided int `json:"elided"`
}

// fingerprinted is the sealed seam behind replan elision: a policy whose
// plan depends only on the engine's PlanEpoch-tracked state plus the
// manager's thermal stance returns a constant; a policy that additionally
// reads continuously-moving observables (the learned policy's thermal and
// slack buckets) folds them — discretised exactly as its Plan would see
// them — into the returned value. A policy that does not implement this
// interface is never elided.
type fingerprinted interface {
	dynFingerprint(e *sim.Engine, m *Manager) uint64
}

// epochKeyed is embedded by built-in policies whose Plan reads only the
// canonical View fields (requirements, platform, DynBudgetMW, cluster
// availability, per-app identity/placement/level/profile): it declares an
// empty dynamic fingerprint, opting the policy into elision.
type epochKeyed struct{}

func (epochKeyed) dynFingerprint(*sim.Engine, *Manager) uint64 { return 0 }

// planFingerprint is the elision key: comparable, cheap to build, and
// covering every input Replan feeds the policy — the engine's planning
// epoch, the manager's requirement and policy versions, the thermal
// stance (pressure and margins, which set DynBudgetMW together with the
// epoch-tracked ambient), and the policy's dynamic extension.
type planFingerprint struct {
	epoch      uint64
	reqsVer    uint64
	policyVer  uint64
	pressure   int
	baseMargin uint64
	pressStep  uint64
	dyn        uint64
}
