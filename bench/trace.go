package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// span is one timed interval of the traced phase. Spans nest through
// Parent (-1 for none); Run is the scenario ID the span belongs to, -1 for
// batch-level work such as generation, shard reads or merges. A span with
// Merged > 0 stands for that many controller callbacks inside its parent:
// recording each of the ~10^7 callbacks is out of the question, so their
// host time is summed into one span laid from the parent's start. Times are
// nanoseconds since the trace began.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     int    `json:"run"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Merged  int    `json:"merged,omitempty"`
}

// tracer holds the traced phase's spans in memory, plus the controller
// counts recorded at the same boundaries.
type tracer struct {
	origin time.Time
	spans  []span

	events    int // engine events delivered to the controller
	ticks     int // controller ticks
	misses    int // EvDeadlineMiss events among them
	replans   int // Manager.Plans() advances
	effective int // replans in callbacks that advanced Engine.PlanEpoch()
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its ID for end.
func (t *tracer) begin(name string, parent, run int) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Run: run, StartNS: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].EndNS = t.now() }

// add records a span whose interval is already known and returns its ID.
func (t *tracer) add(name string, parent, run int, startNS, endNS int64) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Run: run, StartNS: startNS, EndNS: endNS})
	return len(t.spans) - 1
}

// merged records n callbacks' summed host time as one child of parent.
func (t *tracer) merged(name string, parent, run, n int, durNS int64) int {
	start := t.spans[parent].StartNS
	id := t.add(name, parent, run, start, start+durNS)
	t.spans[id].Merged = n
	return id
}

// totals returns the summed duration and self time (duration minus the
// children's durations) of every span name, in seconds.
func (t *tracer) totals() (dur, self map[string]float64) {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	dur, self = map[string]float64{}, map[string]float64{}
	for i, s := range t.spans {
		d := s.EndNS - s.StartNS
		dur[s.Name] += float64(d) / 1e9
		self[s.Name] += float64(d-children[i]) / 1e9
	}
	return dur, self
}

// write stores the spans as NDJSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emitLayers records every per-layer metric from the traced phase's spans
// and counts and the untraced phase's runtime work, then writes the spans.
// Layers a workload does not exercise read zero.
func (b *bench) emitLayers() {
	t := b.tr
	dur, self := t.totals()
	ratio := func(num float64, den int) float64 {
		if den == 0 {
			return 0
		}
		return num / float64(den)
	}
	events := t.events + t.ticks
	b.layer("sim.run_self_s", self["sim.run"], "s")
	b.layer("sim.ns_per_event", ratio(self["sim.run"]*1e9, events), "ns")
	b.layer("sim.events", float64(events), "count")
	b.layer("sim.deadline_misses", float64(t.misses), "count")
	b.layer("sim.reset_s", dur["sim.reset"], "s")
	b.layer("sim.report_s", dur["sim.report"], "s")
	b.layer("rtm.controller_s", dur["rtm.controller"], "s")
	b.layer("rtm.replan_s", dur["rtm.replan"], "s")
	b.layer("rtm.idle_callback_s", dur["rtm.controller"]-dur["rtm.replan"], "s")
	b.layer("rtm.us_per_replan", ratio(dur["rtm.replan"]*1e6, t.replans), "us")
	b.layer("rtm.replans", float64(t.replans), "count")
	b.layer("rtm.ticks", float64(t.ticks), "count")
	b.layer("rtm.effective_replan_frac", ratio(float64(t.effective), t.replans), "frac")
	b.layer("fleet.generate_s", dur["fleet.generate"], "s")
	b.layer("fleet.aggregate_s", dur["fleet.aggregate"], "s")
	b.layer("fleet.train_s", dur["fleet.train"], "s")
	b.layer("fleet.stream_append_s", dur["fleet.stream_append"], "s")
	b.layer("fleet.stream_bytes", float64(b.streamBytes), "B")
	b.layer("fleet.shard_read_s", dur["fleet.shard_read"], "s")
	b.layer("fleet.merge_s", dur["fleet.merge"], "s")
	b.layer("fleet.latency_samples", float64(b.latencySamples), "count")
	b.layer("fleet.runs", float64(b.goStats.runs), "count")
	g := b.goStats
	b.layer("go.alloc_bytes_per_run", ratio(float64(g.allocBytes), g.runs), "B")
	b.layer("go.mallocs_per_run", ratio(float64(g.mallocs), g.runs), "count")
	b.layer("go.gc_cycles", float64(g.gcCycles), "count")
	b.layer("go.gc_pause_s", float64(g.gcPauseNS)/1e9, "s")
	overhead := 0.0
	if b.untracedS > 0 {
		overhead = b.tracedS/b.untracedS - 1
	}
	b.layer("bench.trace_overhead_frac", overhead, "frac")

	path := filepath.Join(b.workdir, "spans.ndjson")
	if err := t.write(path); err != nil {
		b.fail("writing spans: %v", err)
		return
	}
	b.printf("spans %s\n", path)
}

// tracedController wraps a run's scenario controller and times every
// callback into it, classifying callbacks by whether the manager replanned
// and whether the replan changed the engine's planning epoch.
type tracedController struct {
	inner *workload.ScenarioController
	mgr   *rtm.Manager
	t     *tracer

	callbacks, replanCalls int
	ctrlNS, replanNS       int64
}

func (c *tracedController) OnTick(e *sim.Engine) {
	c.t.ticks++
	plans, epoch, t0 := c.mgr.Plans(), e.PlanEpoch(), time.Now()
	c.inner.OnTick(e)
	c.done(e, plans, epoch, t0)
}

func (c *tracedController) OnEvent(e *sim.Engine, ev sim.Event) {
	c.t.events++
	if ev.Kind == sim.EvDeadlineMiss {
		c.t.misses++
	}
	plans, epoch, t0 := c.mgr.Plans(), e.PlanEpoch(), time.Now()
	c.inner.OnEvent(e, ev)
	c.done(e, plans, epoch, t0)
}

func (c *tracedController) done(e *sim.Engine, plans int, epoch uint64, t0 time.Time) {
	d := int64(time.Since(t0))
	c.callbacks++
	c.ctrlNS += d
	if n := c.mgr.Plans() - plans; n > 0 {
		c.replanCalls++
		c.replanNS += d
		c.t.replans += n
		if e.PlanEpoch() != epoch {
			c.t.effective += n
		}
	}
}

// runOne executes one scenario the way fleet.Runner does for a worker that
// reuses eng, rebuilt from public calls so each layer can be timed: policy
// and manager construction, the scripted controller with fault windows
// turned into actions, engine reset, the run, and the report. It fills every
// Result field the outcome hash and Aggregate read, except the fault
// recovery counts, which only the manager's internal log carries. The
// engine to reuse next is returned, nil after a failed run.
func (t *tracer) runOne(s fleet.Scenario, eng *sim.Engine) (fleet.Result, *sim.Engine) {
	root := t.begin("run", -1, s.ID)
	defer t.end(root)
	script := s.Script
	if script.Policy == "" {
		script.Policy = s.Policy
	}
	res := fleet.Result{ID: s.ID, Name: script.Name, Class: s.Class, Platform: s.Platform, Policy: script.Policy, Seed: s.Seed}
	pol := script.Planner
	if pol == nil {
		var err error
		if pol, err = rtm.NewPolicy(script.Policy); err != nil {
			res.Err = err.Error()
			return res, nil
		}
	} else {
		res.Policy = pol.Name()
	}
	if res.Policy == "" {
		res.Policy = rtm.DefaultPolicy
	}
	mgr := rtm.NewManager(script.Reqs)
	mgr.SetPolicy(pol)
	ctrl := &tracedController{
		inner: workload.NewScenarioController(mgr, append(append([]workload.Action(nil), script.Actions...), faultActions(script.Faults)...)),
		mgr:   mgr,
		t:     t,
	}
	cfg := sim.Config{Platform: hw.Catalog()[s.Platform], Apps: script.Apps, Controller: ctrl, TickS: fleet.TickS, LogEvents: true}

	sp := t.begin("sim.reset", root, s.ID)
	var err error
	if eng == nil {
		eng, err = sim.New(cfg)
	} else {
		err = eng.Reset(cfg)
	}
	t.end(sp)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}

	sp = t.begin("sim.run", root, s.ID)
	err = eng.Run(script.EndS)
	t.end(sp)
	c := t.merged("rtm.controller", sp, s.ID, ctrl.callbacks, ctrl.ctrlNS)
	t.merged("rtm.replan", c, s.ID, ctrl.replanCalls, ctrl.replanNS)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}

	sp = t.begin("sim.report", root, s.ID)
	fillResult(&res, eng.Report(), mgr)
	t.end(sp)
	return res, eng
}

// fillResult copies a finished run's report into res as fleet.Runner does,
// including the per-run latency statistics it derives from the event log.
func fillResult(res *fleet.Result, rep sim.Report, mgr *rtm.Manager) {
	res.DurationS = rep.DurationS
	res.EnergyMJ = rep.TotalEnergyMJ
	res.AvgPowerMW = rep.AvgPowerMW
	res.MaxTempC = rep.MaxTempC
	res.OverThrottleS = rep.OverThrottleS
	res.Plans = mgr.Plans()
	res.Migrations = rep.Migrations
	res.LevelSwaps = rep.LevelSwaps
	res.OPPSwitches = rep.OPPSwitches
	res.ClusterFails = rep.ClusterFails
	res.ClusterRepairs = rep.ClusterRepairs
	res.JobsAborted = rep.JobsAborted
	res.UnhostedS = rep.UnhostedS
	res.DegradedFrames = rep.DegradedFrames
	res.DegradedMissed = rep.DegradedMissed
	res.DegradedDropped = rep.DegradedDropped
	for _, a := range rep.Apps {
		if a.Kind == sim.KindDNN {
			res.Released += a.Released
			res.Completed += a.Completed
			res.Missed += a.Missed
			res.Dropped += a.Dropped
		}
	}
	var lat []float64
	var sum float64
	for _, ev := range rep.Events {
		if ev.Kind == sim.EvJobComplete || ev.Kind == sim.EvDeadlineMiss {
			lat = append(lat, ev.LatencyS)
			sum += ev.LatencyS
		}
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		res.MeanLatencyS = sum / float64(len(lat))
		res.P95LatencyS = quantile(lat, 95, 100)
		res.MaxLatencyS = lat[len(lat)-1]
	}
}

// faultActions turns fault windows into fail and repair actions, as
// workload.RunEngine does before a run.
func faultActions(faults []workload.FaultWindow) []workload.Action {
	out := make([]workload.Action, 0, 2*len(faults))
	for _, fw := range faults {
		cluster := fw.Cluster
		out = append(out, workload.Action{
			AtS:  fw.FailS,
			Name: "fault-" + cluster,
			Do:   func(e *sim.Engine, _ *rtm.Manager) { _ = e.SetClusterOnline(cluster, false) },
		})
		if fw.RepairS > 0 {
			out = append(out, workload.Action{
				AtS:  fw.RepairS,
				Name: "repair-" + cluster,
				Do:   func(e *sim.Engine, _ *rtm.Manager) { _ = e.SetClusterOnline(cluster, true) },
			})
		}
	}
	return out
}

// runAll executes scenarios through runOne with one reused engine and
// returns their results; the caller times the batch.
func (t *tracer) runAll(scens []fleet.Scenario) []fleet.Result {
	results := make([]fleet.Result, len(scens))
	var eng *sim.Engine
	for i, s := range scens {
		results[i], eng = t.runOne(s, eng)
	}
	return results
}
