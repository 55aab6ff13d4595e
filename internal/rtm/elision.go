package rtm

// This file is the plan-reuse layer: the fingerprint seam behind replan
// elision. A fleet sweep replans thousands of times per scenario, and most
// of those replans see a planning state nothing has moved since the last
// actuated plan — skipping their planning and actuation is the same
// amortisation the paper's RTM applies to knob actuation. Every replan
// still builds its View first: the key is read from it, and an elided
// replan leaves it as the manager's LastView.
//
// Correctness rests on a sealed, package-internal interface (sealedPolicy,
// which also carries the allocation-free plan path). A policy
// participates only by implementing it, which keeps elision opt-in for the
// built-ins (whose read-sets are known exactly) and automatically sealed
// off for third-party policies: an external Policy cannot implement an
// unexported interface, so it always plans fresh. A sealed policy can
// still decline, replan by replan: the trainer's exploring selector must
// be asked on every replan, so its dynFingerprint answers ok=false.

// PlanStats summarises one manager's plan-reuse behaviour.
type PlanStats struct {
	// Plans is the total number of Replan calls (elided ones included —
	// an elided replan still counts as a plan, exactly as before).
	Plans int `json:"plans"`
	// Elided counts replans skipped entirely because the planning
	// fingerprint was unchanged since the last planned replan, which was
	// therefore an actuated fixed point.
	Elided int `json:"elided"`
	// Evals and Latencies are the planners' work: candidates evaluated
	// and candidate latencies computed by the manager's planning ledger
	// since its Reset, degraded pins included.
	Evals     uint64 `json:"evals"`
	Latencies uint64 `json:"latencies"`
}

// planFingerprint is the elision key: comparable, cheap to build, and
// covering every input Replan feeds the policy — the engine's planning
// epoch, the manager's requirement and policy versions, the thermal
// stance (pressure, which sets DynBudgetMW together with the
// epoch-tracked ambient), and the policy's dynamic extension, which
// sealedPolicy.dynFingerprint reads from the replan's View.
type planFingerprint struct {
	epoch     uint64
	reqsVer   uint64
	policyVer uint64
	pressure  int
	dyn       uint64
}
