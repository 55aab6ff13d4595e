package rtm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"sync"

	"github.com/emlrtm/emlrtm/internal/sim"
)

// This file is the learned side of the paper's "heuristic vs. learned
// managers" framing: a tabular policy that discretises the planning View
// into a small state and, per state, delegates the whole Plan to whichever
// registered base policy training found cheapest there — the adaptive
// model-selection shape of Marco et al., with base policies as the
// pre-built strategies. The table is trained offline (internal/fleet's
// trainer replays seeded fleet scenarios through the same arm selector the
// table runs as, exploring, and scores each state/arm pair on a
// miss-rate + energy reward), serialised to JSON, and loaded at runtime
// through the parameterised registry name "learned:<table.json>" — so a
// trained policy threads through fleet sweeps, shard validation and the
// fleetsim CLI exactly like a built-in.

// LearnedTableVersion is the current table-file format; ReadLearnedTable
// rejects other versions instead of silently misreading arm indices.
const LearnedTableVersion = 1

// LearnedParamPrefix is the prefix NewPolicy resolves a trained table
// by: "learned:<path.json>".
const LearnedParamPrefix = "learned"

// LearnedState is one discretised state's training record: per-arm visit
// counts and mean costs (index-aligned with LearnedTable.Arms) plus the
// greedy choice Finalise derived from them. Keeping the full per-arm
// statistics in the file — not just the argmin — is what makes a trained
// table inspectable: `fleetsim train`'s summary and humans can read how contested each
// state was.
type LearnedState struct {
	// Arm is the base policy Plan delegates to in this state.
	Arm string `json:"arm"`
	// Visits is how many training observations each arm received here.
	Visits []int `json:"visits"`
	// Cost is each arm's mean training cost here (lower is better).
	Cost []float64 `json:"cost"`
}

// LearnedTable is a trained state → base-policy selection table. It is the
// unit of serialisation: the trainer fills it with Observe, freezes it
// with Finalise, and WriteFile emits deterministic bytes (sorted state
// keys, shortest-round-trip floats) so the same training seed yields a
// byte-identical artifact.
type LearnedTable struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	// Arms lists the base policies the table selects among; every
	// per-state Visits/Cost slice is index-aligned with it. Arms must be
	// plain registry names (no "learned:" nesting).
	Arms []string `json:"arms"`
	// Fallback is the arm used for states never seen in training.
	Fallback string `json:"fallback"`
	// MissWeight and EnergyWeight record the reward the table was trained
	// on (cost = MissWeight·missRate + EnergyWeight·avgPowerW), so a table
	// file documents its own objective.
	MissWeight   float64 `json:"missWeight"`
	EnergyWeight float64 `json:"energyWeight"`
	// States maps each state training visited to its record. In the file a
	// state is spelt as State.String spells it.
	States map[State]*LearnedState `json:"states"`
}

// NewLearnedTable builds an empty table over the given arms.
func NewLearnedTable(arms []string) *LearnedTable {
	return &LearnedTable{
		Version: LearnedTableVersion,
		Arms:    append([]string(nil), arms...),
		States:  map[State]*LearnedState{},
	}
}

// Observe folds one training observation — cost of running arm (index into
// Arms) through a scenario that visited state s — into the running
// per-state mean. Call order determines nothing but float accumulation
// order, so trainers must apply observations in a deterministic order.
func (t *LearnedTable) Observe(s State, arm int, cost float64) {
	st := t.States[s]
	if st == nil {
		st = &LearnedState{
			Visits: make([]int, len(t.Arms)),
			Cost:   make([]float64, len(t.Arms)),
		}
		t.States[s] = st
	}
	st.Visits[arm]++
	st.Cost[arm] += (cost - st.Cost[arm]) / float64(st.Visits[arm])
}

// Finalise freezes the greedy selection: Fallback becomes the arm with the
// lowest visit-weighted global mean cost, and each state's Arm its Greedy
// arm (Fallback where none was visited). Ties break toward the lower arm
// index, and the global sums accumulate over sorted states — map-order
// float accumulation could flip a within-rounding-error fallback argmin
// between identical training runs, which the byte-identical-table
// contract cannot afford.
func (t *LearnedTable) Finalise() {
	states := slices.Sorted(maps.Keys(t.States))
	totalVisits := make([]int, len(t.Arms))
	totalCost := make([]float64, len(t.Arms))
	for _, s := range states {
		st := t.States[s]
		for i, n := range st.Visits {
			totalVisits[i] += n
			totalCost[i] += float64(n) * st.Cost[i]
		}
	}
	fb := 0
	fbCost := math.Inf(1)
	for i := range t.Arms {
		if totalVisits[i] == 0 {
			continue
		}
		if c := totalCost[i] / float64(totalVisits[i]); c < fbCost {
			fb, fbCost = i, c
		}
	}
	t.Fallback = t.Arms[fb]
	for _, s := range states {
		t.States[s].Arm = t.Fallback
		if best := t.Greedy(s); best >= 0 {
			t.States[s].Arm = t.Arms[best]
		}
	}
}

// Greedy returns the index of the cheapest arm visited in state s, the
// lower index on a tie, or -1 when s is unseen or no arm was visited
// there. Finalise freezes it into each state's Arm; the trainer's
// refinement runs ask it of the table as it stands between epochs.
func (t *LearnedTable) Greedy(s State) int {
	st := t.States[s]
	if st == nil {
		return -1
	}
	best := -1
	for i, n := range st.Visits {
		if n > 0 && (best < 0 || st.Cost[i] < st.Cost[best]) {
			best = i
		}
	}
	return best
}

// Choose returns the arm for a state: the trained greedy choice, or
// Fallback for states never seen in training.
func (t *LearnedTable) Choose(s State) string {
	if st := t.States[s]; st != nil {
		return st.Arm
	}
	return t.Fallback
}

// Validate checks a table is internally consistent — version, arm names
// (checkArms), per-state slice alignment, finite costs — so a hand-edited
// or truncated file fails at load with a field-level message, not at plan
// time with a panic or a silently wrong delegation.
func (t *LearnedTable) Validate() error {
	if t.Version != LearnedTableVersion {
		return fmt.Errorf("rtm: learned table version %d, want %d", t.Version, LearnedTableVersion)
	}
	if err := checkArms(t.Arms); err != nil {
		return fmt.Errorf("rtm: learned table %w", err)
	}
	if !slices.Contains(t.Arms, t.Fallback) {
		return fmt.Errorf("rtm: learned table fallback %q is not an arm (%v)", t.Fallback, t.Arms)
	}
	// Visit states in sorted order: validation stops at the first bad
	// state, and map order would make *which* error a multi-defect table
	// reports vary run to run (detlint:rangemap surfaced this).
	for _, key := range slices.Sorted(maps.Keys(t.States)) {
		st := t.States[key]
		if st == nil {
			return fmt.Errorf("rtm: learned table state %q is null", key)
		}
		if !slices.Contains(t.Arms, st.Arm) {
			return fmt.Errorf("rtm: learned table state %q selects unknown arm %q", key, st.Arm)
		}
		if len(st.Visits) != len(t.Arms) || len(st.Cost) != len(t.Arms) {
			return fmt.Errorf("rtm: learned table state %q carries %d visit / %d cost entries, want %d (one per arm)",
				key, len(st.Visits), len(st.Cost), len(t.Arms))
		}
		for i, n := range st.Visits {
			if n < 0 {
				return fmt.Errorf("rtm: learned table state %q arm %q has negative visits", key, t.Arms[i])
			}
			if math.IsNaN(st.Cost[i]) || math.IsInf(st.Cost[i], 0) {
				return fmt.Errorf("rtm: learned table state %q arm %q has non-finite cost", key, t.Arms[i])
			}
		}
	}
	return nil
}

// checkArms is the one rule a selector's arms keep, in a trained table and
// in a trainer alike: at least one arm, each a registered policy's plain
// name (no "learned:" nesting), none listed twice. Its errors read on from
// the caller's subject ("rtm: learned table " + "has no arms").
func checkArms(arms []string) error {
	if len(arms) == 0 {
		return errors.New("has no arms")
	}
	for i, a := range arms {
		switch {
		case a == "" || strings.Contains(a, ":"):
			return fmt.Errorf("arm %q must be a plain registry name", a)
		case slices.Contains(arms[:i], a):
			return fmt.Errorf("arm %q listed twice", a)
		case factoryOf(a) == nil:
			return fmt.Errorf("arm %q is not a registered policy (registered: %v)", a, Policies())
		}
	}
	return nil
}

// MarshalBytes renders the table as deterministic indented JSON: map keys
// sort, floats use shortest-round-trip formatting, so identical tables are
// byte-identical files — the property the trainer's seed-determinism
// contract (and CI's cmp check) rests on.
func (t *LearnedTable) MarshalBytes() ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// WriteFile validates and writes the table to path.
func (t *LearnedTable) WriteFile(path string) error {
	raw, err := t.MarshalBytes()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// ReadLearnedTable decodes and validates a table from JSON bytes. It
// accepts only the bytes MarshalBytes writes for the table it decodes, so
// one table has one accepted encoding: a key the table does not define,
// at the top level or in a state, is refused rather than ignored, and so
// are reordered keys, other white space or number spellings, and
// anything after the table.
func ReadLearnedTable(raw []byte) (*LearnedTable, error) {
	var t LearnedTable
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("rtm: decoding learned table: %w", err)
	}
	canon, err := t.MarshalBytes()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(raw, canon) {
		return nil, errors.New("rtm: decoding learned table: not the bytes MarshalBytes writes for it")
	}
	return &t, nil
}

// ReadLearnedTableFile reads and validates a table file from disk.
func ReadLearnedTableFile(path string) (*LearnedTable, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rtm: reading learned table: %w", err)
	}
	t, err := ReadLearnedTable(raw)
	if err != nil {
		return nil, fmt.Errorf("rtm: %s: %w", path, err)
	}
	return t, nil
}

// ---- State discretisation ----

// State-space sizes. The buckets are deliberately coarse: with three base
// policies and a few hundred fleet workloads per training run, a small
// table fills densely; a fine one would train on single-digit visits per
// cell.
const (
	stateThermalBuckets = 3 // headroom to throttle: hot / warm / cool
	statePowerBuckets   = 4 // budget ÷ platform max dynamic power quartile-ish
	stateSlackBuckets   = 4 // worst deadline slack: missing / tight / ok / loose
	stateAppsCap        = 4 // running DNN count, capped
)

// State is the learned policy's tabular state, one bucket per hex digit
// from the most significant: thermal headroom, power-budget ratio, worst
// deadline slack and running-DNN count. So states order numerically as
// their spellings ("h1p2s0a3") order, and a table file, whose map keys
// are those spellings, keeps them sorted.
type State uint32

// stateZero spells the zero State; a state's spelling carries its
// buckets' digits in place of the zeros, each below its stateBuckets
// count.
const stateZero = "h0p0s0a0"

var stateBuckets = [4]State{stateThermalBuckets, statePowerBuckets, stateSlackBuckets, stateAppsCap + 1}

// StateKey discretises a planning View into the learned policy's state.
// Identical Views map to identical states, and the state depends only on
// View fields — both properties the Policy determinism contract needs. It
// runs once per Plan of a table or of the trainer, and allocates nothing.
//
//detlint:hotpath
func StateKey(v *View) State {
	return State(thermalBucket(v)<<12 | powerBucket(v)<<8 | slackBucket(v)<<4 | dnnCount(v))
}

// String spells s as a table file keys it: "h1p2s0a3".
func (s State) String() string {
	b := []byte(stateZero)
	for i := range stateBuckets {
		b[2*i+1] += byte(s >> (12 - 4*i) & 0xf)
	}
	return string(b)
}

// MarshalText implements encoding.TextMarshaler, so a State keys a JSON
// object by its String. It refuses a state no View produces, whose
// spelling does not read back to it.
func (s State) MarshalText() ([]byte, error) {
	var back State
	if err := back.UnmarshalText([]byte(s.String())); err != nil || back != s {
		return nil, fmt.Errorf("rtm: %#x is not a learned state", uint32(s))
	}
	return []byte(s.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler. It accepts exactly
// the spellings String gives for in-range buckets, so a table file keys
// only states some View produces.
func (s *State) UnmarshalText(text []byte) error {
	var st State
	for i, n := range stateBuckets {
		if len(text) != len(stateZero) || text[2*i] != stateZero[2*i] || State(text[2*i+1]-'0') >= n {
			return fmt.Errorf("state %q is not a learned state (h0-2 p0-3 s0-3 a0-4)", text)
		}
		st = st<<4 | State(text[2*i+1]-'0')
	}
	*s = st
	return nil
}

// thermalBucket classifies the headroom between the die and the effective
// throttle point (margin included): <3 °C hot, <10 °C warm, else cool.
func thermalBucket(v *View) int {
	switch headC := v.ThrottleC - v.MarginC - v.TempC; {
	case headC < 3:
		return 0
	case headC < 10:
		return 1
	default:
		return 2
	}
}

// powerBucket classifies the thermal power budget relative to the
// platform's maximum dynamic draw (every cluster flat out): the same
// absolute budget means very different planning freedom on a 5 W board
// and a 15 W SoC.
func powerBucket(v *View) int {
	maxDyn := 0.0
	for _, cl := range v.Platform.Clusters {
		maxDyn += dynPowerMW(cl, cl.MaxOPP(), cl.Cores, 1)
	}
	if maxDyn <= 0 {
		return statePowerBuckets - 1
	}
	switch r := v.DynBudgetMW / maxDyn; {
	case r < 0.25:
		return 0
	case r < 0.5:
		return 1
	case r < 1:
		return 2
	default:
		return 3
	}
}

// slackBucket classifies the worst relative deadline slack across running
// DNNs, judged on each app's observed average latency: negative slack
// (missing) is 0, under a quarter of the budget left is 1, under 60% is
// 2, else 3. A view with no running DNNs reports full slack.
func slackBucket(v *View) int {
	worst := math.Inf(1)
	for i := range v.Apps {
		a := &v.Apps[i]
		if !a.Running || a.Kind != sim.KindDNN {
			continue
		}
		budget := v.req(a).MaxLatencyS
		if budget <= 0 {
			continue
		}
		if slack := (budget - a.AvgLatency) / budget; slack < worst {
			worst = slack
		}
	}
	switch {
	case math.IsInf(worst, 1):
		return stateSlackBuckets - 1
	case worst < 0:
		return 0
	case worst < 0.25:
		return 1
	case worst < 0.6:
		return 2
	default:
		return 3
	}
}

// dnnCount counts running DNN apps, capped at stateAppsCap.
func dnnCount(v *View) int {
	n := 0
	for i := range v.Apps {
		if v.Apps[i].Running && v.Apps[i].Kind == sim.KindDNN {
			n++
		}
	}
	if n > stateAppsCap {
		n = stateAppsCap
	}
	return n
}

// ---- The arm selector ----

// armSelector delegates each Plan, whole, to one of its arms: the one
// choose picks for the view's State. Delegating the entire plan —
// rather than learning knob settings directly — keeps every plan it emits
// inside the feasibility envelope the base policies already guarantee
// (ledger bookkeeping, thermal budget, memory), so the learner can only
// ever choose *among* safe strategies, never invent an unsafe one.
//
// A trained table runs as the selector whose choose reads the table; the
// trainer explores through one whose choose explores and records each
// pick. elide says whether the manager may elide the selector's replans:
// a table's pick is a function of the State, whose moving parts
// dynFingerprint covers, while a trainer's must be asked on every replan.
type armSelector struct {
	name   string
	arms   []Policy // fresh instances, index-aligned with the arm names
	choose func(State) int
	elide  bool
}

// learnedTableCache memoises successfully loaded table files by path
// (sync.Map: written once per path, read per policy resolution). A fleet
// run resolves its policy by name once per scenario, so an uncached
// loader would re-read, re-parse and re-validate the file millions of
// times on the hot path — and, worse, a file edited mid-run would split
// one sweep across two different tables, breaking the bit-identical-at-
// any-worker-count contract. First successful load wins for the process
// lifetime; load *errors* are not cached, so a missing file can be fixed
// and retried.
var learnedTableCache sync.Map

// LoadLearnedPolicy reads a trained table file and wraps it as a Policy
// named "learned:<path>" — the same string NewPolicy resolves, so Result.Policy fields and shard validation round-trip it.
// Tables are cached by path for the process lifetime (see
// learnedTableCache); the returned Policy is fresh per call.
func LoadLearnedPolicy(path string) (Policy, error) {
	t, ok := learnedTableCache.Load(path)
	if !ok {
		loaded, err := ReadLearnedTableFile(path)
		if err != nil {
			return nil, err
		}
		// LoadOrStore keeps the first stored table on a racing load, so
		// every concurrent resolver still plans from one table.
		t, _ = learnedTableCache.LoadOrStore(path, loaded)
	}
	// Cached tables were validated at load; skip the O(states×arms)
	// re-validation a per-scenario resolution would otherwise repeat.
	return newLearnedPolicy(LearnedParamPrefix+":"+path, t.(*LearnedTable)), nil
}

// NewLearnedPolicy validates an in-memory table and wraps it as a Policy
// under the given registry name. Trainers use it to evaluate a freshly
// trained table without a file round-trip.
func NewLearnedPolicy(name string, t *LearnedTable) (Policy, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return newLearnedPolicy(name, t), nil
}

// newLearnedPolicy wraps an already-validated table as the selector whose
// choose reads it, elided as dynFingerprint allows.
func newLearnedPolicy(name string, t *LearnedTable) Policy {
	return newArmSelector(name, t.Arms, func(s State) int { return slices.Index(t.Arms, t.Choose(s)) }, true)
}

// NewArmSelector builds a policy named name that plans each replan with
// the arm choose picks, by index into arms, for the view's State. The
// arms keep the rule a learned table's arms keep (see Validate). The
// manager never elides the selector's replans, so choose is asked exactly
// once per Replan, and may draw from an exploration stream and record
// what it picked, as the fleet trainer's does.
func NewArmSelector(name string, arms []string, choose func(State) int) (Policy, error) {
	if err := checkArms(arms); err != nil {
		return nil, fmt.Errorf("rtm: arm selector %w", err)
	}
	return newArmSelector(name, arms, choose, false), nil
}

// newArmSelector builds a selector over checked arm names. Arms are
// instantiated fresh per selector — never cached or shared — because
// third-party arms may carry per-instance state, and policy instances
// elsewhere in the system are one-per-scenario-run.
func newArmSelector(name string, arms []string, choose func(State) int, elide bool) *armSelector {
	p := &armSelector{name: name, arms: make([]Policy, len(arms)), choose: choose, elide: elide}
	for i, a := range arms {
		p.arms[i] = factoryOf(a)()
	}
	return p
}

// Name implements Policy.
func (p *armSelector) Name() string { return p.name }

// armFor resolves the base policy for a view's state.
func (p *armSelector) armFor(v *View) Policy {
	return p.arms[p.choose(StateKey(v))]
}

// Plan implements Policy.
func (p *armSelector) Plan(v View) []Assignment {
	return p.armFor(&v).Plan(v)
}

// planInto implements sealedPolicy: state lookup is read-only, so the
// delegate's allocation-free path carries straight through. An arm from
// outside the package plans over a clone, as the manager would hand it
// one.
func (p *armSelector) planInto(v *View, sc *planScratch) []Assignment {
	arm := p.armFor(v)
	if sp := sealedOf(arm); sp != nil {
		return sp.planInto(v, sc)
	}
	return sc.planOutside(arm, v)
}

// dynFingerprint implements sealedPolicy. Unlike a built-in's, a trained
// table's plan depends on more than the epoch-tracked View: the thermal
// and slack buckets of its state read continuously-moving observables
// (die temperature, per-app average latency). The key is those two
// buckets, computed by the functions StateKey uses, so the two cannot
// drift apart. The other StateKey inputs (power bucket, DNN count) are
// fully determined by epoch-tracked state plus the manager fields already
// in the fingerprint. A selector built without elision answers ok=false.
func (p *armSelector) dynFingerprint(v *View) (uint64, bool) {
	if !p.elide {
		return 0, false
	}
	return uint64(thermalBucket(v))<<8 | uint64(slackBucket(v)), true
}
