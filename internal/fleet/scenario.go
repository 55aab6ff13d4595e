// Package fleet is a fleet-scale evaluation harness: it samples many
// diverse runtime scenarios from the repo's building blocks (platforms
// from hw.Catalog, app mixes and disturbance patterns in the style of
// internal/workload) and runs them as independent sim.Engine + rtm.Manager
// instances across a bounded worker pool.
//
// Determinism is the core contract. Every scenario carries its own RNG
// seed, derived from the master seed and the scenario index by a SplitMix64
// step, so scenario i is the same no matter how many scenarios are
// generated around it; and every run is a pure function of its scenario,
// so the aggregate report is bit-identical regardless of worker count or
// completion order. That is what lets a 1-worker CI run and a 64-worker
// sweep box check each other.
package fleet

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/rng"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// Class labels the disturbance pattern a scenario exercises. Classes keep
// the sampled population covering the paper's qualitatively different
// regimes instead of collapsing into one average workload.
type Class string

// Scenario classes, from least to most adversarial.
const (
	// ClassSteady: DNN streams only, no disturbances — the manager's plan
	// should converge once and hold.
	ClassSteady Class = "steady"
	// ClassMixed: DNN streams sharing the platform with render and
	// background load from the start (the Fig 2 co-location premise).
	ClassMixed Class = "mixed"
	// ClassBursty: background bursts arrive and leave mid-run (the Fig 5
	// disturbance shape).
	ClassBursty Class = "bursty"
	// ClassThermal: the ambient temperature steps up by 10–20 K mid-run,
	// and in half the runs back down later (the disturbance of the Fig 2
	// t=18 event). The rise rarely binds: the power budget at the hotter
	// ambient still exceeds what most sampled workloads draw, so few runs
	// reach the throttle point or shed power (none on odroid-xu3 or
	// jetson-nano). ROADMAP direction 20 recalibrates the class so that
	// it does what its name says.
	ClassThermal Class = "thermal"
	// ClassChurn: apps arrive/leave mid-run and a requirement changes (the
	// Fig 2 t=25 event).
	ClassChurn Class = "churn"
	// ClassFaulty: clusters drop offline mid-run (and usually come back) —
	// the hardware-fault disturbance. Never all clusters at once, so a
	// graceful policy always has somewhere to degrade to.
	ClassFaulty Class = "faulty"
)

// AllClasses lists every built-in class in generation order.
func AllClasses() []Class {
	return []Class{ClassSteady, ClassMixed, ClassBursty, ClassThermal, ClassChurn, ClassFaulty}
}

// Scenario is one generated fleet member: a scripted workload bound to a
// named catalog platform, run under a named planning policy. When the
// generator sweeps several policies, consecutive scenario IDs share one
// workload (same Seed, Class, Platform, Script) and differ only in
// Policy, so per-policy aggregates compare strategies on identical work.
//
// A generated scenario is read-only. The runs of one workload share its
// script's Apps, Reqs, Actions and Faults, and every DNN of every
// scenario on a platform shares that platform's profile levels, which the
// Generator keeps. Copying a Scenario and setting its top-level fields
// (Script.Planner included) is fine; writing an element of one of its
// slices, Reqs included, changes other runs and later generations.
type Scenario struct {
	ID int
	// Seed is scenarioSeed(master seed, workload index), the seed of the
	// rng.RNG stream the workload's script was sampled from. Every policy
	// run of a workload carries it, and a shard reader recomputes it to
	// refuse a record generated under another master seed.
	Seed     uint64
	Class    Class
	Platform string // hw.Catalog key
	Policy   string // rtm policy registry key
	Script   workload.Scenario
}

// GeneratorConfig parametrises scenario sampling. It is JSON-tagged
// because shard files embed it verbatim: Merge only accepts shards whose
// configs are identical, since any difference here changes what scenario
// index i means.
type GeneratorConfig struct {
	// Seed is the master seed; all per-scenario seeds derive from it.
	Seed uint64 `json:"seed"`
	// Platforms restricts sampling to these hw.Catalog names (nil = all,
	// in sorted-name order for determinism).
	Platforms []string `json:"platforms,omitempty"`
	// Classes restricts sampling to these classes (nil = AllClasses).
	Classes []Class `json:"classes,omitempty"`
	// Policies lists the rtm planning policies to sweep (nil = just the
	// default heuristic). With P policies, run index i carries workload
	// i/P under policy i%P: each sampled workload is evaluated under
	// every policy, back to back in the index space, so any contiguous
	// shard split keeps the sweep balanced.
	Policies []string `json:"policies,omitempty"`
}

// Generator samples scenarios deterministically. The platform catalog
// and each configured platform's sampling envelope are built once, in
// NewGenerator, and only read while generating, so one Generator serves
// concurrent GenerateRange calls. Scenarios carry platform names, never
// pointers into the catalog, and share their envelope's profile levels
// (see Scenario: generated scenarios are read-only).
type Generator struct {
	cfg       GeneratorConfig
	catalog   map[string]*hw.Platform
	platforms []string
	envs      []env // envs[i] is platforms[i]'s
	classes   []Class
	policies  []string
}

// NewGenerator validates the config against the platform catalog.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	cat := hw.Catalog()
	g := &Generator{cfg: cfg, catalog: cat}
	if len(cfg.Platforms) == 0 {
		for name := range cat {
			g.platforms = append(g.platforms, name)
		}
		sort.Strings(g.platforms)
	} else {
		for _, name := range cfg.Platforms {
			if cat[name] == nil {
				return nil, fmt.Errorf("fleet: unknown platform %q", name)
			}
			g.platforms = append(g.platforms, name)
		}
	}
	for _, name := range g.platforms {
		g.envs = append(g.envs, newEnv(cat[name]))
	}
	if len(cfg.Classes) == 0 {
		g.classes = AllClasses()
	} else {
		known := map[Class]bool{}
		for _, c := range AllClasses() {
			known[c] = true
		}
		for _, c := range cfg.Classes {
			if !known[c] {
				return nil, fmt.Errorf("fleet: unknown class %q (valid: %v)", c, AllClasses())
			}
		}
		g.classes = cfg.Classes
	}
	pols, err := resolvePolicies(cfg.Policies)
	if err != nil {
		return nil, err
	}
	g.policies = pols
	return g, nil
}

// resolvePolicies validates a policy list against the rtm registry and
// applies the default. Duplicates are rejected: they would silently run
// the same strategy twice and skew per-policy aggregates.
func resolvePolicies(names []string) ([]string, error) {
	if len(names) == 0 {
		return []string{rtm.DefaultPolicy}, nil
	}
	seen := map[string]bool{}
	out := make([]string, 0, len(names))
	for _, name := range names {
		if _, err := rtm.NewPolicy(name); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		if name == "" {
			name = rtm.DefaultPolicy
		}
		if seen[name] {
			return nil, fmt.Errorf("fleet: policy %q listed twice", name)
		}
		seen[name] = true
		out = append(out, name)
	}
	return out, nil
}

// normalized returns the config in its canonical form, so configs that
// mean the same fleet compare equal: empty Platforms and Classes lists
// become nil, as a stream header's omitempty writes them, and Policies is
// resolved (nil and [""] become ["heuristic"]) — a shard run with the
// default policy implicit must merge with one where it was spelled out.
func (c GeneratorConfig) normalized() GeneratorConfig {
	if len(c.Platforms) == 0 {
		c.Platforms = nil
	}
	if len(c.Classes) == 0 {
		c.Classes = nil
	}
	if pols, err := resolvePolicies(c.Policies); err == nil {
		c.Policies = pols
	}
	return c
}

// RunCount converts a workload count into a run count: every sampled
// workload is run once per swept policy. It checks nothing; a count a
// caller was handed goes through Runs.
func (g *Generator) RunCount(workloads int) int { return workloads * len(g.policies) }

// Runs is RunCount for a workload count from outside the program: it
// refuses a count that is not positive, or whose run count does not fit
// in an int (RunCount would wrap it to a negative or smaller count, and so
// to a fleet with no or too few runs).
func (g *Generator) Runs(workloads int) (int, error) {
	if workloads <= 0 {
		return 0, fmt.Errorf("fleet: scenario count %d must be positive", workloads)
	}
	if workloads > math.MaxInt/len(g.policies) {
		return 0, fmt.Errorf("fleet: %d scenarios under %d policies overflow the run count", workloads, len(g.policies))
	}
	return g.RunCount(workloads), nil
}

// scenarioSeed derives scenario id's RNG seed from the master seed, mixed
// by the SplitMix64 step (rng.Next). It is the determinism anchor of the
// distributed layer: shard readers recompute it to detect results that
// were generated under a different master seed.
func scenarioSeed(master uint64, id int) uint64 {
	return rng.Next(master + uint64(id)*0x9e3779b97f4a7c15)
}

// Generate samples n scenarios (n <= 0 yields none). Scenario i depends
// only on (Seed, i), so prefixes are stable when n grows.
func (g *Generator) Generate(n int) []Scenario {
	return g.GenerateRange(0, n)
}

// GenerateRange samples scenarios for the half-open index range [lo, hi).
// Because scenario i depends only on (Seed, i), a contiguous range is
// independently reproducible in any process: GenerateRange(lo, hi) equals
// Generate(hi)[lo:hi] element for element. This is what a shard owns in a
// multi-process fleet run. Each workload draws from its own rng.RNG,
// seeded in O(1) with scenarioSeed(Seed, workload), so a range shares no
// generator state with another. Out-of-range bounds clamp (lo < 0 becomes
// 0; hi <= lo yields none). The scenarios are read-only: a workload's
// policy runs in the range share one script body, and every scenario
// shares its platform's profile levels with the Generator.
func (g *Generator) GenerateRange(lo, hi int) []Scenario {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	// A workload's later policy runs copy its first run's header in the
	// range, sharing its script body, instead of sampling it again.
	out := make([]Scenario, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if i > lo && i%len(g.policies) != 0 {
			s := out[len(out)-1]
			s.ID, s.Policy = i, g.policies[i%len(g.policies)]
			s.Script.Policy = s.Policy
			out = append(out, s)
			continue
		}
		out = append(out, g.generateOne(i))
	}
	return out
}

func (g *Generator) generateOne(id int) Scenario {
	// With P swept policies, run id carries workload id/P under policy
	// id%P: the workload RNG seeds off the *workload* index, so the same
	// script is sampled bit-identically for every policy it runs under —
	// that is what makes per-policy aggregates comparable.
	wl := id / len(g.policies)
	policy := g.policies[id%len(g.policies)]
	seed := scenarioSeed(g.cfg.Seed, wl)
	rnd := rng.New(seed)
	class := g.classes[rnd.Intn(len(g.classes))]
	pi := rnd.Intn(len(g.platforms))
	platName := g.platforms[pi]

	s := Scenario{
		ID:       id,
		Seed:     seed,
		Class:    class,
		Platform: platName,
		Policy:   policy,
	}
	s.Script = g.script(rnd, class, g.catalog[platName], &g.envs[pi])
	s.Script.Name = workloadName(class, platName, wl)
	s.Script.Policy = policy
	return s
}

// workloadName is fmt.Sprintf("%s-%s-%04d", class, plat, wl) for wl >= 0,
// built in one allocation.
func workloadName(class Class, plat string, wl int) string {
	var buf [20]byte
	n := strconv.AppendInt(buf[:0], int64(wl), 10)
	return string(class) + "-" + plat + "-" + "0000"[min(len(n), 4):] + string(n)
}

// env is the platform-derived sampling envelope: which profile is
// realistic, which clusters can host what, and how fast the best cluster
// runs the full model (periods scale off that so every platform sees
// feasible-but-tight frame rates rather than one hardcoded mix).
type env struct {
	prof       perf.ModelProfile
	modelBytes int64
	bestLatS   float64 // full-model latency on the fastest cluster at max OPP
	dnnHosts   []string
	cpuHosts   []*hw.Cluster // CPU clusters for background load
	renderHost string        // GPU cluster name, "" if none
}

func newEnv(plat *hw.Platform) env {
	e := env{prof: perf.PaperReferenceProfile(), modelBytes: 350 << 10}
	// Platforms with a fast accelerator get the heavier mobile-vision
	// profile so the accelerator faces real trade-offs.
	for _, cl := range plat.Clusters {
		if cl.Type.IsAccelerator() && cl.OPPRate(cl.MaxOPP()) >= 100e6 {
			e.prof = perf.MobileProfile()
			e.modelBytes = 7 << 20
			break
		}
	}
	full := e.prof.Level(e.prof.MaxLevel()).MACs
	best := 0.0
	for _, cl := range plat.Clusters {
		lat := perf.InferenceLatencyS(cl, cl.MaxOPP(), cl.Cores, full)
		if best == 0 || lat < best {
			best = lat
		}
		e.dnnHosts = append(e.dnnHosts, cl.Name)
		if cl.Type.IsAccelerator() {
			if cl.Type == hw.CoreGPU && e.renderHost == "" {
				e.renderHost = cl.Name
			}
		} else {
			e.cpuHosts = append(e.cpuHosts, cl)
		}
	}
	e.bestLatS = best
	return e
}

// pickPeriod samples a frame period as a multiple of the platform's best
// full-model latency: tight (×1.5) through comfortable (×8).
func pickPeriod(rnd *rng.RNG, e *env) float64 {
	factors := []float64{1.5, 2, 3, 5, 8}
	return e.bestLatS * factors[rnd.Intn(len(factors))]
}

// pickRequirement samples an achievable accuracy floor by choosing a level
// of the profile (or none) and a priority.
func pickRequirement(rnd *rng.RNG, e *env) rtm.Requirement {
	r := rtm.Requirement{Priority: 1 + rnd.Intn(3)}
	if lvl := rnd.Intn(e.prof.MaxLevel() + 1); lvl > 0 {
		r.MinAccuracy = e.prof.Level(lvl).Accuracy
	}
	return r
}

// Every scenario's simulation horizon is drawn uniformly from
// [minDurationS, maxDurationS).
const (
	minDurationS = 20.0
	maxDurationS = 40.0
)

func sampleDuration(rnd *rng.RNG) float64 {
	return minDurationS + rnd.Float64()*(maxDurationS-minDurationS)
}

// dnnNames and burstNames name a scenario's DNNs and background bursts;
// their lengths are the largest counts script samples.
var (
	dnnNames   = [...]string{"dnn1", "dnn2", "dnn3"}
	burstNames = [...]string{"burst1", "burst2"}
)

// script builds the class-specific workload timeline on plat, whose
// envelope is e. Every DNN gets e's profile, levels included, uncopied.
func (g *Generator) script(rnd *rng.RNG, class Class, plat *hw.Platform, e *env) workload.Scenario {
	endS := sampleDuration(rnd)
	nDNN := 1 + rnd.Intn(len(dnnNames))
	nApps := nDNN
	if class == ClassMixed || class == ClassBursty {
		nApps += len(burstNames) // at most render and bg, or the bursts
	}
	sc := workload.Scenario{
		EndS: endS,
		Apps: make([]sim.App, 0, nApps),
		Reqs: make(rtm.Requirements, 0, nDNN),
	}
	for i, name := range dnnNames[:nDNN] {
		host := plat.Cluster(e.dnnHosts[rnd.Intn(len(e.dnnHosts))])
		cores := host.Cores
		if !host.Type.IsAccelerator() {
			cores = 1 + rnd.Intn(host.Cores)
		}
		app := sim.App{
			Name:       name,
			Kind:       sim.KindDNN,
			Profile:    e.prof,
			Level:      1 + rnd.Intn(e.prof.MaxLevel()),
			PeriodS:    pickPeriod(rnd, e),
			ModelBytes: e.modelBytes,
			Placement:  sim.Placement{Cluster: host.Name, Cores: cores},
		}
		if class == ClassChurn && i > 0 {
			// Staggered arrivals; some leave before the end.
			app.StartS = rnd.Float64() * endS / 2
			if rnd.Intn(2) == 0 {
				app.StopS = app.StartS + (0.3+0.5*rnd.Float64())*(endS-app.StartS)
			}
		}
		sc.Apps = append(sc.Apps, app)
		sc.Reqs = append(sc.Reqs, rtm.AppRequirement{App: name, Requirement: pickRequirement(rnd, e)})
	}

	switch class {
	case ClassMixed:
		if e.renderHost != "" {
			sc.Apps = append(sc.Apps, sim.App{
				Name:      "render",
				Kind:      sim.KindRender,
				Util:      0.3 + 0.5*rnd.Float64(),
				Placement: sim.Placement{Cluster: e.renderHost},
			})
		}
		if len(e.cpuHosts) > 0 {
			host := e.cpuHosts[rnd.Intn(len(e.cpuHosts))]
			sc.Apps = append(sc.Apps, sim.App{
				Name:      "bg",
				Kind:      sim.KindBackground,
				Util:      0.3 + 0.6*rnd.Float64(),
				Placement: sim.Placement{Cluster: host.Name, Cores: 1 + rnd.Intn(host.Cores)},
			})
		}
	case ClassBursty:
		nBurst := 1 + rnd.Intn(len(burstNames))
		for i := 0; i < nBurst && len(e.cpuHosts) > 0; i++ {
			host := e.cpuHosts[rnd.Intn(len(e.cpuHosts))]
			start := rnd.Float64() * endS * 0.6
			sc.Apps = append(sc.Apps, sim.App{
				Name:      burstNames[i],
				Kind:      sim.KindBackground,
				Util:      0.6 + 0.4*rnd.Float64(),
				StartS:    start,
				StopS:     start + (0.2+0.3*rnd.Float64())*endS,
				Placement: sim.Placement{Cluster: host.Name, Cores: 1 + rnd.Intn(host.Cores)},
			})
		}
	case ClassThermal:
		// SetAmbient refuses only a non-finite ambient, and both are
		// finite: Validate refuses a platform whose AmbientC is not.
		hotAt := (0.2 + 0.3*rnd.Float64()) * endS
		hotC := plat.AmbientC + 10 + 10*rnd.Float64()
		sc.Actions = append(sc.Actions, workload.Action{
			AtS:  hotAt,
			Name: "hot-environment",
			Do:   func(se *sim.Engine, m *rtm.Manager) { _ = se.SetAmbient(hotC) },
		})
		if rnd.Intn(2) == 0 {
			coolAt := hotAt + (0.3+0.3*rnd.Float64())*(endS-hotAt)
			base := plat.AmbientC
			sc.Actions = append(sc.Actions, workload.Action{
				AtS:  coolAt,
				Name: "cool-environment",
				Do:   func(se *sim.Engine, m *rtm.Manager) { _ = se.SetAmbient(base) },
			})
		}
	case ClassFaulty:
		// Seeded hardware faults: one cluster (two on bigger platforms)
		// drops offline mid-run; most come back. rnd.Perm keeps the failed
		// clusters distinct, so at least one cluster always stays online
		// and a graceful policy has somewhere to degrade to.
		nWin := 1
		if len(plat.Clusters) > 2 && rnd.Intn(2) == 0 {
			nWin = 2
		}
		order := rnd.Perm(len(plat.Clusters))
		for i := 0; i < nWin; i++ {
			fw := workload.FaultWindow{
				Cluster: plat.Clusters[order[i]].Name,
				FailS:   (0.2 + 0.4*rnd.Float64()) * endS,
			}
			if rnd.Intn(3) > 0 {
				fw.RepairS = fw.FailS + (0.15+0.35*rnd.Float64())*(endS-fw.FailS)
			}
			sc.Faults = append(sc.Faults, fw)
		}
	case ClassChurn:
		// Mid-run requirement change on one DNN, as in Fig 2 t=25.
		target := dnnNames[rnd.Intn(nDNN)]
		newReq := pickRequirement(rnd, e)
		sc.Actions = append(sc.Actions, workload.Action{
			AtS:  (0.4 + 0.3*rnd.Float64()) * endS,
			Name: "requirement-change-" + target,
			Do: func(se *sim.Engine, m *rtm.Manager) {
				if m == nil {
					return
				}
				m.SetRequirement(target, newReq)
				m.Replan(se)
			},
		})
	}
	return sc
}
