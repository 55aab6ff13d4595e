package sim

import (
	"fmt"
	"math/bits"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
)

// This file is the controller-facing API of the engine: the "monitors"
// (observation) and "knobs" (actuation) the RTM layer of Fig 5 uses.

// ---- Monitors (observation) ----

// Now returns the simulation clock in seconds.
func (e *Engine) Now() float64 { return e.now }

// Temperature returns the die temperature in °C — a device monitor. It is
// the temperature at the last thermal step boundary: the die is sampled
// every 250 ms, like a thermal sensor polled on a fixed interval, and
// holds that value until the next boundary. A boundary comes before
// every event at its instant, so a tick there reads the new sample.
func (e *Engine) Temperature() float64 { return e.tempC }

// ThrottleC returns the platform's thermal throttle trip point.
func (e *Engine) ThrottleC() float64 { return e.plat.Thermal.ThrottleC }

// SetAmbient changes the ambient temperature (an environmental
// disturbance: the device moving into a pocket or sunlight). It takes
// effect at the next thermal step boundary: each step is solved under the
// ambient in force at its end, so a change at a boundary's instant (as
// from a tick there) governs exactly the step that starts then, and a
// change mid-step governs the whole step it falls in. A NaN or infinite
// ambient is an error and changes nothing: it would carry into every
// later temperature.
func (e *Engine) SetAmbient(c float64) error {
	if !finite(c) {
		return fmt.Errorf("sim: ambient %f must be finite", c)
	}
	if c == e.ambient {
		return nil
	}
	e.ambient = c
	// Ambient feeds the thermal power budget planners work against, so it
	// advances the planning epoch; no derived value reads it.
	e.planEpoch++
	return nil
}

// Platform returns the simulated platform description.
func (e *Engine) Platform() *hw.Platform { return e.plat }

// PlanEpoch is a monotone counter over planning-relevant engine state:
// the running-app set, model levels, placements, per-cluster OPPs,
// cluster availability and the ambient temperature. Two calls returning
// the same value guarantee that
// every View field a planning policy derives from that state is unchanged
// — the cheap dirty check behind the rtm manager's replan elision.
// Continuously-moving observables (clock, die temperature, per-app
// latency statistics) are deliberately outside it.
func (e *Engine) PlanEpoch() uint64 { return e.planEpoch }

// AppCount returns the number of configured apps.
func (e *Engine) AppCount() int { return len(e.appList) }

// AppAt returns the observable state of the app at index i in creation
// order — the allocation-free counterpart of Apps for callers walking the
// app set.
func (e *Engine) AppAt(i int) AppInfo { return e.appInfo(e.appList[i]) }

// AppInfo is the observable state of one app — application monitors
// (frame latency, misses) plus current knob settings.
type AppInfo struct {
	Name      string
	Kind      AppKind
	Running   bool
	Placement Placement
	Level     int
	PeriodS   float64

	// Profile and ModelBytes echo the app description so planners can
	// reason about alternative levels and memory footprints.
	Profile    perf.ModelProfile
	ModelBytes int64
	Util       float64 // render/background demand

	Released   int
	Completed  int
	Missed     int
	Dropped    int
	Aborted    int // frames killed by a cluster fault (in-flight or released while unhosted)
	AvgLatency float64
}

// App returns the observable state of the named app.
func (e *Engine) App(name string) (AppInfo, error) {
	a := e.app(name)
	if a == nil {
		return AppInfo{}, fmt.Errorf("sim: unknown app %q", name)
	}
	return e.appInfo(a), nil
}

func (e *Engine) appInfo(a *appState) AppInfo {
	info := AppInfo{
		Name:       a.Name,
		Kind:       a.Kind,
		Running:    a.started && !a.stopped,
		Placement:  a.placed,
		Level:      a.level,
		PeriodS:    a.PeriodS,
		Profile:    a.Profile,
		ModelBytes: a.ModelBytes,
		Util:       a.Util,
		Released:   a.released,
		Completed:  a.completed,
		Missed:     a.missed,
		Dropped:    a.dropped,
		Aborted:    a.aborted,
	}
	if a.completed > 0 {
		info.AvgLatency = a.sumLatency / float64(a.completed)
	}
	return info
}

// Apps returns all apps in deterministic creation order.
func (e *Engine) Apps() []AppInfo {
	out := make([]AppInfo, 0, len(e.appList))
	for _, a := range e.appList {
		out = append(out, e.appInfo(a))
	}
	return out
}

// ClusterInfo is the observable state of one cluster.
//
// An app's placement is in its AppInfo, so a cluster's residents are the
// running apps placed on it.
type ClusterInfo struct {
	Name     string
	Type     hw.CoreType
	OPPIndex int
	FreqGHz  float64
	Cores    int
	Util     float64
	PowerMW  float64
	EnergyMJ float64 // energy drawn since the run started
	MemFree  int64   // accelerator model memory remaining (0 for DRAM clusters)
	Online   bool    // availability: false while the cluster is failed
}

// Cluster returns the observable state of the named cluster.
func (e *Engine) Cluster(name string) (ClusterInfo, error) {
	cs := e.cluster(name)
	if cs == nil {
		return ClusterInfo{}, fmt.Errorf("sim: unknown cluster %q", name)
	}
	return e.clusterInfo(cs), nil
}

// clusterInfo is the observable state of the cluster: the shared fill
// behind Cluster and SnapshotInto.
func (e *Engine) clusterInfo(cs *clusterState) ClusterInfo {
	info := ClusterInfo{
		Name:     cs.c.Name,
		Type:     cs.c.Type,
		OPPIndex: cs.oppIdx,
		FreqGHz:  cs.c.OPPs[cs.oppIdx].FreqGHz,
		Cores:    cs.c.Cores,
		Util:     cs.util,
		PowerMW:  cs.pow,
		EnergyMJ: cs.energyAt(e.now),
		Online:   cs.online,
	}
	if cs.c.MemBytes > 0 {
		info.MemFree = cs.c.MemBytes - e.acceleratorMemUsed(cs.c.Name, "")
	}
	return info
}

// Snapshot is a read-only capture of everything a planning policy may
// observe: the clock, the thermal state, and per-app / per-cluster
// observable state. The engine's mutable state is captured as value
// copies — overwriting a Snapshot field cannot reach back into the
// engine. (Shared static configuration referenced from the copies, such
// as profile level tables, stays shared and is read-only by contract.)
type Snapshot struct {
	TimeS     float64
	AmbientC  float64
	TempC     float64
	ThrottleC float64
	Apps      []AppInfo
	Clusters  []ClusterInfo
}

// SnapshotInto rebuilds s in place from the engine's observable state,
// reusing s's Apps and Clusters backing storage, which is what lets a
// controller ticking every simulated epoch snapshot allocation-free; pass
// a zero Snapshot to start a fresh buffer set. Apps are in deterministic
// creation order and Clusters in platform order, so two snapshots of
// identical engine states are identical — the determinism anchor for
// policy planning.
//
//detlint:hotpath
func (e *Engine) SnapshotInto(s *Snapshot) {
	s.TimeS = e.now
	s.AmbientC = e.ambient
	s.TempC = e.tempC
	s.ThrottleC = e.plat.Thermal.ThrottleC
	s.Apps = s.Apps[:0]
	for _, a := range e.appList {
		s.Apps = append(s.Apps, e.appInfo(a))
	}
	s.Clusters = s.Clusters[:0]
	for _, cs := range e.clusterList {
		s.Clusters = append(s.Clusters, e.clusterInfo(cs))
	}
}

// acceleratorMemUsed sums the level-scaled model bytes of DNN apps resident
// on the cluster, excluding `except`.
func (e *Engine) acceleratorMemUsed(cluster, except string) int64 {
	var used int64
	for _, a := range e.appList {
		if a.Name == except || a.stopped || a.placed.Cluster != cluster || a.Kind != KindDNN {
			continue
		}
		used += e.levelBytes(a)
	}
	return used
}

// levelBytes returns the app's resident model size at its current level.
func (e *Engine) levelBytes(a *appState) int64 {
	if a.ModelBytes == 0 {
		return 0
	}
	return a.ModelBytes * int64(a.level) / int64(a.Profile.MaxLevel())
}

// ---- Knobs (actuation) ----

// SetLevel changes a DNN app's model configuration (the application knob).
// The change is free (a dynamic-DNN pointer bump); it applies to the next
// frame. On memory-constrained accelerators the new level must fit.
func (e *Engine) SetLevel(app string, level int) error {
	a := e.app(app)
	if a == nil {
		return fmt.Errorf("sim: unknown app %q", app)
	}
	if a.Kind != KindDNN {
		return fmt.Errorf("sim: app %q is not a DNN", app)
	}
	if level < 1 || level > a.Profile.MaxLevel() {
		return fmt.Errorf("sim: app %q level %d out of range [1,%d]", app, level, a.Profile.MaxLevel())
	}
	if level == a.level {
		return nil
	}
	cl := e.plat.Cluster(a.placed.Cluster)
	if cl.MemBytes > 0 && a.ModelBytes > 0 {
		newBytes := a.ModelBytes * int64(level) / int64(a.Profile.MaxLevel())
		if e.acceleratorMemUsed(a.placed.Cluster, app)+newBytes > cl.MemBytes {
			return fmt.Errorf("sim: level %d of %q does not fit %s memory", level, app, cl.Name)
		}
	}
	a.level = level
	a.jobMACs = float64(a.Profile.Level(level).MACs)
	// A level change is planning-relevant (and alters the next release's
	// workload) but changes nothing derive reads.
	e.planEpoch++
	e.levelSwaps++
	e.refresh()
	return nil
}

// SetOPP changes a cluster's DVFS operating point (a device knob). Every
// resident app sees the new frequency — the shared-domain coupling.
func (e *Engine) SetOPP(cluster string, idx int) error {
	cs := e.cluster(cluster)
	if cs == nil {
		return fmt.Errorf("sim: unknown cluster %q", cluster)
	}
	if idx < 0 || idx >= len(cs.c.OPPs) {
		return fmt.Errorf("sim: OPP index %d out of range for %s", idx, cluster)
	}
	if idx == cs.oppIdx {
		return nil
	}
	cs.setOPP(idx)
	e.touch(cs)
	e.planEpoch++
	e.oppSwitches++
	e.refresh()
	return nil
}

// SetClusterOnline changes a cluster's availability (the hardware-fault
// disturbance knob). Taking a cluster offline aborts its in-flight jobs —
// the work is lost, not migrated — and leaves resident apps unhosted until
// a controller replans them; bringing it back makes it plannable again.
// Both transitions advance the planning epoch and re-derive the cluster,
// so replan elision can never serve a plan computed against a
// different availability set.
func (e *Engine) SetClusterOnline(cluster string, online bool) error {
	cs := e.cluster(cluster)
	if cs == nil {
		return fmt.Errorf("sim: unknown cluster %q", cluster)
	}
	if cs.online == online {
		return nil
	}
	cs.online = online
	kind := EvClusterRepair
	if online {
		e.offline--
		e.clusterRepairs++
	} else {
		e.offline++
		e.clusterFails++
		kind = EvClusterFail
		for _, a := range e.appList {
			if a.placedCS == cs && a.jobActive {
				a.jobActive = false
				a.aborted++
				a.completionSeq = 0 // cancel the pending completion event
			}
		}
	}
	e.touch(cs)
	e.planEpoch++
	e.emit(Event{TimeS: e.now, Kind: kind, Cluster: cluster})
	e.refresh()
	return nil
}

// UnhostedApps counts running DNN apps currently placed on an offline
// cluster — work that needs a replan to resume. The zero-fault fast path
// keeps this cheap enough to poll every tick.
func (e *Engine) UnhostedApps() int {
	if e.offline == 0 {
		return 0
	}
	n := 0
	for _, a := range e.appList {
		if a.Kind == KindDNN && a.started && !a.stopped && !a.placedCS.online {
			n++
		}
	}
	return n
}

// Migrate moves an app to a new placement (the task-mapping knob),
// charging the migration model's downtime during which the app's current
// job stalls. Capacity and accelerator memory are checked first.
func (e *Engine) Migrate(app string, to Placement) error {
	a := e.app(app)
	if a == nil {
		return fmt.Errorf("sim: unknown app %q", app)
	}
	toCS := e.cluster(to.Cluster)
	if toCS == nil {
		return fmt.Errorf("sim: unknown cluster %q", to.Cluster)
	}
	cl := toCS.c
	if !toCS.online {
		return fmt.Errorf("sim: cluster %q is offline", to.Cluster)
	}
	if toCS.accel {
		to.Cores = cl.Cores
	} else if to.Cores < 1 || to.Cores > cl.Cores {
		return fmt.Errorf("sim: core count %d out of range for %s", to.Cores, to.Cluster)
	}
	if a.placed == to {
		return nil
	}
	// CPU capacity check.
	bit := uint64(1) << a.idx
	if !toCS.accel {
		used := 0
		for r := toCS.res &^ bit; r != 0; r &= r - 1 {
			used += e.appList[bits.TrailingZeros64(r)].placed.Cores
		}
		if used+to.Cores > cl.Cores {
			return fmt.Errorf("sim: %s has %d/%d cores used; cannot fit %d more",
				to.Cluster, used, cl.Cores, to.Cores)
		}
	}
	// Accelerator memory check.
	if cl.MemBytes > 0 && a.Kind == KindDNN && a.ModelBytes > 0 {
		if e.acceleratorMemUsed(to.Cluster, app)+e.levelBytes(a) > cl.MemBytes {
			return fmt.Errorf("sim: model of %q does not fit %s memory", app, to.Cluster)
		}
	}
	fromCS := a.placedCS
	a.placed = to
	a.placedCS = toCS
	if a.started && !a.stopped {
		fromCS.res &^= bit
		toCS.res |= bit
	}
	// Marked even when it is no resident: refresh arms the unblock timer
	// of an app migrated before its start, as a scan of every app would.
	e.dirty |= bit
	if a.Kind == KindDNN {
		// The downtime supersedes the app's timer; refresh re-arms it.
		a.blockedUntil = e.now + migrationDowntimeS(e.levelBytes(a))
		a.completionSeq = 0
	}
	e.touch(fromCS)
	e.touch(toCS)
	e.planEpoch++
	e.migrations++
	if e.logEvents {
		e.eventLog = append(e.eventLog, Event{TimeS: e.now, Kind: EvMigrated, App: app,
			Cluster: to.Cluster, FromCluster: fromCS.c.Name, Cores: to.Cores})
	}
	e.refresh()
	return nil
}

// ---- Results ----

// Report is the overall simulation outcome.
type Report struct {
	DurationS     float64
	TotalEnergyMJ float64
	AvgPowerMW    float64
	// MaxTempC is the peak die temperature and OverThrottleS the time
	// spent above the throttle trip point, over the thermal steps closed
	// so far (a run's last partial step, under 250 ms, is not counted).
	// Each step runs at its exact average power, under which temperature
	// is monotone: its peak sits at one of its ends and the trip point is
	// crossed at most once, at its closed-form time. A throttle alarm
	// fires at the end of the step that crossed upward, at most 250 ms
	// after the crossing. MaxTempC ≤ the platform's CriticalC says the
	// die never passed the critical trip point.
	MaxTempC      float64
	OverThrottleS float64
	Migrations    int
	LevelSwaps    int
	OPPSwitches   int

	// Fault accounting (all zero on a fault-free run). JobsAborted sums the
	// per-app Aborted stats; UnhostedS integrates running-DNN app-seconds
	// spent placed on an offline cluster; the Degraded* counters count the
	// frames released, missed and dropped while any cluster was offline.
	ClusterFails    int
	ClusterRepairs  int
	JobsAborted     int
	UnhostedS       float64
	DegradedFrames  int
	DegradedMissed  int
	DegradedDropped int

	Apps   []AppInfo
	Events []Event // only when LogEvents was set
	// Latencies holds every finished job's latency in completion order —
	// the LatencyS of Events' EvJobComplete and EvDeadlineMiss entries —
	// only when LogLatencies was set.
	Latencies []float64
}

// Report summarises the run so far. The open segment of every integral
// counts up to the clock without being closed, so reading a report changes
// nothing, and Run(a); Run(b) reports exactly what Run(b) does. The
// thermal fields cover the steps closed so far.
// TotalEnergyMJ is the sum of the clusters' energies, each of which
// Engine.Cluster reports.
func (e *Engine) Report() Report {
	r := Report{
		DurationS:     e.now,
		MaxTempC:      e.maxTempC,
		OverThrottleS: e.overThrotS,
		Migrations:    e.migrations,
		LevelSwaps:    e.levelSwaps,
		OPPSwitches:   e.oppSwitches,

		ClusterFails:    e.clusterFails,
		ClusterRepairs:  e.clusterRepairs,
		UnhostedS:       e.unhostedAt(),
		DegradedFrames:  e.degReleased,
		DegradedMissed:  e.degMissed,
		DegradedDropped: e.degDropped,

		Apps:      e.Apps(),
		Events:    e.eventLog,
		Latencies: e.latLog,
	}
	for _, a := range e.appList {
		r.JobsAborted += a.aborted
	}
	r.TotalEnergyMJ = e.energyAt(e.now)
	if e.now > 0 {
		r.AvgPowerMW = r.TotalEnergyMJ / e.now
	}
	return r
}
