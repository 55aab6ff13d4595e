package workload_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// polled forwards only OnTick and OnEvent to a scenario controller, so the
// engine, finding no sim.Waker, ticks it on every tick: the polling a
// tracing wrapper sees. It keeps the wake the controller would have
// handed the engine, read after every callback (and before the first),
// and on every tick that wake does not make due it requires OnTick to
// change nothing: the manager's plans, the plan epoch, and the scripted
// steps applied.
type polled struct {
	t      *testing.T
	name   string
	c      *workload.ScenarioController
	wake   sim.Wake
	read   bool
	passed int // the ticks the wake does not make due
}

// state is what a tick the wake passes must leave unchanged.
type pollState struct {
	stats   rtm.PlanStats
	epoch   uint64
	applied int
}

func (p *polled) state(e *sim.Engine) pollState {
	st := pollState{epoch: e.PlanEpoch()}
	if p.c.Mgr != nil {
		st.stats = p.c.Mgr.PlanStats()
	}
	st.applied = p.c.Applied()
	return st
}

// readFirst reads the wake before the first callback. The engine reads it
// at Run entry; in between only the clock and FailedFrames move, which a
// wake does not read, so the two agree.
func (p *polled) readFirst(e *sim.Engine) {
	if !p.read {
		p.wake, p.read = p.c.NextWake(e), true
	}
}

func (p *polled) OnTick(e *sim.Engine) {
	p.readFirst(e)
	if p.wake.Due(e.Now(), e.FailedFrames()) {
		p.c.OnTick(e)
	} else {
		p.passed++
		before := p.state(e)
		p.c.OnTick(e)
		if after := p.state(e); after != before {
			p.t.Errorf("%s: at t=%gs a tick the wake passes changed %+v to %+v", p.name, e.Now(), before, after)
		}
	}
	p.wake = p.c.NextWake(e)
}

func (p *polled) OnEvent(e *sim.Engine, ev sim.Event) {
	p.readFirst(e)
	p.c.OnEvent(e, ev)
	p.wake = p.c.NextWake(e)
}

// outcome is everything a run reports: the engine's report and work, the
// manager's counters and, for a logged run, its decision log.
type outcome struct {
	rep       sim.Report
	work      sim.Work
	stats     rtm.PlanStats
	recoverN  int
	recoverS  float64
	decisions string
}

func collect(e *sim.Engine, m *rtm.Manager, rep sim.Report, log *strings.Builder) outcome {
	o := outcome{rep: rep, work: e.Work(), stats: m.PlanStats(), decisions: log.String()}
	o.recoverN, o.recoverS = m.Recoveries()
	return o
}

// differ runs s on plat twice, on two stacks: polled, behind the
// forwarding wrapper, and woken, as the stack runs it. It requires equal
// outcomes but for the tick and callback counts, requires the woken run
// to have skipped exactly the ticks the wrapper found not due, and
// returns how many those were and how many ticks the polled run took.
func differ(t *testing.T, name string, polledStack, wokenStack *workload.Stack, s workload.Scenario, plat *hw.Platform, logged bool) (passed, ticks uint64) {
	t.Helper()
	var plog, wlog strings.Builder
	var logf, wlogf func(string, ...any)
	if logged {
		logf = func(f string, a ...any) { fmt.Fprintf(&plog, f+"\n", a...) }
		wlogf = func(f string, a ...any) { fmt.Fprintf(&wlog, f+"\n", a...) }
	}
	var wrap *polled
	pe, pm, prep, err := polledStack.RunThrough(&s, plat, fleet.TickS, logf, logged, func(c *workload.ScenarioController) sim.Controller {
		wrap = &polled{t: t, name: name, c: c}
		return wrap
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	p := collect(pe, pm, prep, &plog)
	we, wm, wrep, err := wokenStack.RunThrough(&s, plat, fleet.TickS, wlogf, logged,
		func(c *workload.ScenarioController) sim.Controller { return c })
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	w := collect(we, wm, wrep, &wlog)
	ticks = p.work.Ticks
	if skipped := p.work.Ticks - w.work.Ticks; skipped != uint64(wrap.passed) || p.work.Callbacks-w.work.Callbacks != skipped {
		t.Errorf("%s: woken run took %d of %d ticks and %d of %d callbacks; the wake passes %d ticks",
			name, w.work.Ticks, p.work.Ticks, w.work.Callbacks, p.work.Callbacks, wrap.passed)
	}
	p.work.Ticks, p.work.Callbacks = w.work.Ticks, w.work.Callbacks
	if !reflect.DeepEqual(p, w) {
		t.Errorf("%s: polled and woken runs differ:\npolled %+v\nwoken  %+v", name, p, w)
	}
	return uint64(wrap.passed), ticks
}

// TestPolledEqualsWoken runs every fleet golden's scenarios, Fig 2 and
// Fig 5 as rtmsim runs them, and a faulty, thermal and churn sweep under
// three policies on each catalog platform, once with the scenario
// controller polled on every tick and once woken only on the ticks its
// wake makes due, and requires the two runs to report the same bytes
// (see differ and polled). It also requires the wakes to pass most
// ticks, or the comparison would show little.
func TestPolledEqualsWoken(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each of about 260 scenarios twice")
	}
	table := "learned:../fleet/testdata/golden_learned_table_seed7_n8.json"
	sets := []struct {
		cfg       fleet.GeneratorConfig
		workloads int
	}{
		{fleet.GeneratorConfig{Seed: 1}, 32},
		{fleet.GeneratorConfig{Seed: 1, Classes: []fleet.Class{fleet.ClassFaulty}}, 16},
		{fleet.GeneratorConfig{Seed: 7, Policies: []string{"heuristic", "minenergy", table}}, 16},
		{fleet.GeneratorConfig{Seed: 1, Platforms: []string{"odroid-xu3"}}, 14},
	}
	for _, plat := range slices.Sorted(maps.Keys(hw.Catalog())) {
		sets = append(sets, struct {
			cfg       fleet.GeneratorConfig
			workloads int
		}{fleet.GeneratorConfig{Seed: 2, Platforms: []string{plat},
			Classes:  []fleet.Class{fleet.ClassFaulty, fleet.ClassThermal, fleet.ClassChurn},
			Policies: []string{"heuristic", "maxaccuracy", "minenergy"}}, 12})
	}
	var polledStack, wokenStack workload.Stack
	plats := map[string]*hw.Platform{}
	var passed, ticks uint64
	faulty := 0
	for _, set := range sets {
		gen, err := fleet.NewGenerator(set.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range gen.Generate(gen.RunCount(set.workloads)) {
			script := s.Script
			if script.Policy == "" {
				script.Policy = s.Policy
			}
			if plats[s.Platform] == nil {
				plats[s.Platform] = hw.NewPlatform(s.Platform)
			}
			if len(script.Faults) > 0 {
				faulty++
			}
			p, n := differ(t, fmt.Sprintf("seed %d %s %s", s.Seed, script.Name, script.Policy), &polledStack, &wokenStack,
				script, plats[s.Platform], false)
			passed, ticks = passed+p, ticks+n
		}
	}
	for _, tc := range []struct {
		s    workload.Scenario
		plat *hw.Platform
	}{
		{workload.Fig2Scenario(), hw.FlagshipSoC()},
		{workload.Fig5Scenario(perf.PaperReferenceProfile()), hw.OdroidXU3()},
	} {
		p, n := differ(t, tc.s.Name, new(workload.Stack), new(workload.Stack), tc.s, tc.plat, true)
		passed, ticks = passed+p, ticks+n
	}
	t.Logf("%d faulty runs; the wakes passed %d of %d ticks", faulty, passed, ticks)
	if faulty == 0 || passed*10 < ticks*9 {
		t.Errorf("%d faulty runs; the wakes passed %d of %d ticks, want at least 90 %%", faulty, passed, ticks)
	}
}

// TestWokenTickKeepsTieOrder constructs a tie between a release and a
// woken tick. The DNN's period is exactly the 0.25 s tick, so it releases
// a frame on every instant of the tick chain, and the scripted probes at
// 5 s and 7.5 s wake the ticks there. Each tick was armed before the
// release it ties with, so it comes first, as it does when every tick is
// handled: each probe sees the frames released before its instant, 20
// and 30, not the one released at it.
func TestWokenTickKeepsTieOrder(t *testing.T) {
	var seen []int
	probe := func(e *sim.Engine, m *rtm.Manager) {
		a, err := e.App("dnn")
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, a.Released)
	}
	s := workload.Scenario{
		Name: "tie",
		Apps: []sim.App{{Name: "dnn", Kind: sim.KindDNN, Profile: perf.MobileProfile(), Level: 2, PeriodS: 0.25,
			ModelBytes: 1 << 20, Placement: sim.Placement{Cluster: "a15", Cores: 2}}},
		Actions: []workload.Action{{AtS: 5, Name: "probe", Do: probe}, {AtS: 7.5, Name: "probe", Do: probe}},
		EndS:    10,
	}
	if _, _, _, err := workload.Run(s, hw.OdroidXU3(), fleet.TickS, nil); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seen, []int{20, 30}) {
		t.Fatalf("the probes saw %v frames released, want [20 30]", seen)
	}
}

// TestContinuedRunReplansOnFirstTick runs a managed engine to 10.1 s,
// sets a requirement, which schedules a replan, and runs on to 10.3 s:
// the replan lands on the first tick after the first run's end, 10.25 s,
// as it does when every tick is handled. The engine must read the
// manager's wake afresh when the second Run starts; the wake it held
// from the first run made no tick due.
func TestContinuedRunReplansOnFirstTick(t *testing.T) {
	mgr := rtm.NewManager(nil)
	e, err := sim.New(sim.Config{
		Platform: hw.OdroidXU3(),
		Apps: []sim.App{{Name: "dnn", Kind: sim.KindDNN, Profile: perf.MobileProfile(), Level: 2, PeriodS: 0.1,
			ModelBytes: 1 << 20, Placement: sim.Placement{Cluster: "a15", Cores: 2}}},
		Controller: mgr,
		TickS:      fleet.TickS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10.1); err != nil {
		t.Fatal(err)
	}
	plans := mgr.Plans()
	mgr.SetRequirement("dnn", rtm.Requirement{MinAccuracy: 0.5})
	if err := e.Run(10.3); err != nil {
		t.Fatal(err)
	}
	if got, at := mgr.Plans(), mgr.LastView().NowS; got != plans+1 || at != 10.25 {
		t.Fatalf("%d replans after the first run, the last at %gs; want 1, at 10.25s", got-plans, at)
	}
}
