// Package sim is a discrete-event simulator for DNN and non-DNN workloads
// executing on a heterogeneous multi-core platform (hw.Platform). It models
// what the paper's runtime scenario (Fig 2) needs:
//
//   - periodic DNN inference apps with frame deadlines, placed on CPU
//     clusters (with a core count) or accelerators;
//   - GPU render apps and CPU background apps that occupy resources and
//     draw power;
//   - per-cluster DVFS (one OPP per voltage/frequency domain — co-resident
//     apps share the frequency, the paper's "same voltage/frequency
//     domain" coupling);
//   - accelerator contention (resident DNN jobs share the accelerator's
//     throughput) and NPU model-memory capacity (the Fig 2(d) constraint);
//   - energy accounting per cluster, and a lumped RC thermal model advanced
//     in fixed 250 ms steps at each step's exact average power, with
//     throttle-crossing alarms at the end of the crossing step;
//   - migration with a load-time cost, and runtime model-level switching;
//   - a Controller hook (the RTM) invoked on a fixed epoch and on the
//     events a manager acts on (not on frames that finish on time).
//
// Between events all rates and powers are constant, so job progress and
// energy are integrated exactly. Each integral is closed only where its
// own rate changes and read in closed form in between, so events that
// change nothing leave every result unchanged, bit for bit. Temperature
// follows energy: each thermal step reads the energy its interval
// gained, so it too is independent of how events slice time.
//
// Events at one instant run in this order: first a thermal step boundary
// (and the throttle alarm it may raise), then the timers (job completions
// and ends of migration downtime) in the order they were armed, then the
// starts, stops, releases and ticks in the order they were armed. A job
// whose latency equals its period exactly therefore completes on time,
// and the frame released at that instant starts a new job rather than
// being dropped.
package sim

import (
	"fmt"
	"math"
	"slices"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
)

// AppKind classifies workloads.
type AppKind int

// Workload kinds of the Fig 2 scenario.
const (
	KindDNN        AppKind = iota // periodic inference with deadlines
	KindRender                    // continuous GPU load (AR/VR)
	KindBackground                // continuous CPU load
)

func (k AppKind) String() string {
	switch k {
	case KindDNN:
		return "dnn"
	case KindRender:
		return "render"
	case KindBackground:
		return "background"
	}
	return "unknown"
}

// App describes a workload to simulate.
type App struct {
	Name string
	Kind AppKind

	// DNN apps.
	Profile    perf.ModelProfile // per-level MACs/accuracy/memory
	Level      int               // initial model level
	PeriodS    float64           // frame period (deadline = period)
	ModelBytes int64             // resident size of the FULL model (level scales it)

	// Render/Background apps.
	Util float64 // fraction of the cluster the app occupies (0..1]

	// Lifetime.
	StartS float64
	StopS  float64 // 0 = runs to the end of simulation

	// Initial placement.
	Placement Placement
}

// Placement binds an app to a cluster and, for CPU clusters, a core count.
type Placement struct {
	Cluster string
	Cores   int // ignored for accelerators (always the whole device)
}

// EventKind enumerates observable simulator events.
type EventKind int

// Simulator event kinds, as logged; Controller says which reach OnEvent.
const (
	EvAppStart EventKind = iota
	EvAppStop
	EvJobComplete
	EvDeadlineMiss // job finished after its deadline
	EvFrameDrop    // release arrived while previous job still running
	EvThermalAlarm // temperature crossed the throttle threshold upward
	EvMigrated
	EvClusterFail   // a cluster dropped offline (hardware fault)
	EvClusterRepair // a failed cluster came back online
)

func (k EventKind) String() string {
	switch k {
	case EvAppStart:
		return "app-start"
	case EvAppStop:
		return "app-stop"
	case EvJobComplete:
		return "job-complete"
	case EvDeadlineMiss:
		return "deadline-miss"
	case EvFrameDrop:
		return "frame-drop"
	case EvThermalAlarm:
		return "thermal-alarm"
	case EvMigrated:
		return "migrated"
	case EvClusterFail:
		return "cluster-fail"
	case EvClusterRepair:
		return "cluster-repair"
	}
	return "unknown"
}

// Event is one entry of the event log, and what the Controller's OnEvent
// hook receives for the kinds it is delivered (see Controller). Its
// details are typed fields, each set only on the kinds its comment names;
// Detail renders them as text for presentation.
type Event struct {
	TimeS float64
	Kind  EventKind
	App   string
	// Cluster names the cluster an EvClusterFail/EvClusterRepair event is
	// about, and the destination of an EvMigrated ("" for other app-level
	// events).
	Cluster string
	// LatencyS is the job's release-to-completion latency, set on
	// EvJobComplete and EvDeadlineMiss (0 otherwise). Consumers building
	// latency distributions (percentiles) that need no other event read
	// Report.Latencies instead (Config.LogLatencies).
	LatencyS float64
	// PeriodS is the missed deadline of an EvDeadlineMiss.
	PeriodS float64
	// TempC is the die temperature that raised an EvThermalAlarm.
	TempC float64
	// FromCluster and Cores are an EvMigrated's source cluster and
	// destination core count.
	FromCluster string
	Cores       int
	// Unhosted marks an EvFrameDrop whose app sat on an offline cluster.
	Unhosted bool
}

// Detail renders the event's typed details as the human-readable note the
// timelines print ("" for kinds without one). It formats on every call, so
// the simulator never calls it; presentation code does, on demand.
func (ev Event) Detail() string {
	switch ev.Kind {
	case EvDeadlineMiss:
		return fmt.Sprintf("latency %.1fms > %.1fms", ev.LatencyS*1000, ev.PeriodS*1000)
	case EvThermalAlarm:
		return fmt.Sprintf("%.1fC", ev.TempC)
	case EvMigrated:
		return fmt.Sprintf("%s -> %s/%d", ev.FromCluster, ev.Cluster, ev.Cores)
	case EvFrameDrop:
		if ev.Unhosted {
			return "unhosted"
		}
	}
	return ""
}

// Controller is the runtime-manager hook (Fig 5's RTM layer). OnTick fires
// every TickS seconds; OnEvent fires for each state change a manager acts
// on: app starts and stops, deadline misses, frame drops, thermal alarms
// and cluster faults and repairs. On-time completions (EvJobComplete) and
// migrations (EvMigrated) reach only the event log. Both hooks may call
// the Engine's actuation methods (SetLevel, Migrate, SetOPP, ...).
type Controller interface {
	OnTick(e *Engine)
	OnEvent(e *Engine, ev Event)
}

// Migration cost, mirroring dyndnn's switch-cost constants: a fixed
// re-init latency plus reloading the model at a fixed bandwidth.
const (
	migrationFixedS       = 0.050
	migrationBandwidthBps = 200e6
)

// migrationDowntimeS returns the migration downtime for a model of the
// given size.
func migrationDowntimeS(bytes int64) float64 {
	return migrationFixedS + float64(bytes)/migrationBandwidthBps
}

// appState is the live state of one app.
type appState struct {
	App
	idx     int32 // position in Engine.appList, carried by scheduler events
	placed  Placement
	level   int
	started bool
	stopped bool

	// Current job (DNN apps). Its progress is held as an anchor: at
	// anchorS it had jobRemaining MACs left, and it has run at anchorRate
	// MAC/s since. refresh re-anchors it only when its rate changes.
	jobActive    bool
	jobReleaseS  float64
	jobRemaining float64 // MACs left at anchorS
	anchorS      float64
	anchorRate   float64
	jobMACs      float64 // a new job's work at the current level, kept by Reset and SetLevel

	// The app's timer: completionSeq is its seq (0 for none), completionEst
	// its time and completionKind hComplete for the job's completion or
	// hUnblock for the end of migration downtime. Re-arming overwrites the
	// slot in place.
	completionSeq  int64
	completionEst  float64
	completionKind hKind

	// The app's release slot: its next frame is due at relT, armed with
	// seq relSeq (0 for none). A release arms the next one, so there is
	// never more than one.
	relT   float64
	relSeq int64

	blockedUntil float64 // migration downtime

	// placedCS is the cluster state of the current placement — the hot
	// loop resolves it once per migration instead of once per rate query.
	placedCS *clusterState

	// rate is the MAC/s rate a job of this app runs at, derived with the
	// cluster it is placed on (see Engine.derive).
	rate float64

	// Stats.
	released   int
	completed  int
	missed     int
	dropped    int
	aborted    int // jobs killed by a cluster fault (in-flight or released while unhosted)
	sumLatency float64
}

// clusterState tracks per-cluster dynamics.
type clusterState struct {
	c      *hw.Cluster
	bit    uint64 // 1 << the cluster's position in Engine.clusterList
	oppIdx int
	// dynMW is the dynamic power of the current OPP at full utilisation,
	// Ceff·V²·f, kept in step with oppIdx by setOPP (see busyPowerMW).
	dynMW  float64
	online bool // availability: an offline cluster runs nothing and draws nothing
	accel  bool // c.Type.IsAccelerator(), resolved once per Reset

	// Energy (mJ) is held per constant-power segment: it is closed up to
	// segT0S, and the open segment runs at segPowMW (see syncThermal and
	// energyAt).
	energy   float64
	segT0S   float64
	segPowMW float64

	// res is the cluster's resident set: bit i is set while appList[i] is
	// started, not stopped and placed here. hStart and hStop set and clear
	// it and Migrate moves it, so derive visits only the residents.
	res uint64

	// companion is the CPU cluster this accelerator's inference loads
	// (nil for none), resolved once per Reset. loadHead lists the
	// accelerators that load this cluster (those whose companion it is,
	// with a non-zero CompanionUtil), linked through loadNext in platform
	// order, so a derive visits only them.
	companion *clusterState
	loadHead  *clusterState
	loadNext  *clusterState
	// coreScale[n] is c.CoreScale(n) for n in 0..Cores, tabulated once per
	// Reset so job-rate refreshes never call math.Pow (see rate). It is a
	// window of Engine.coreScaleStore.
	coreScale []float64

	// Derived values, recomputed by Engine.derive wherever a mutation they
	// can observe touches the cluster. Between mutations the system is
	// piecewise-constant, so they hold until the next touch: utilisation,
	// busy power, the share of the accelerator each active DNN job gets,
	// and whether any DNN job is active. own is the utilisation before the
	// loaders' CompanionUtil (see loadTail), and blocked says some
	// resident was inside its migration downtime at the last derive.
	util    float64
	pow     float64
	share   float64
	active  bool
	own     float64
	blocked bool
}

// Engine runs the simulation.
type Engine struct {
	plat *hw.Platform
	// appList / clusterList hold the apps in creation order and the
	// clusters in platform order: the engine's iteration orders, and its
	// only index. A name lookup scans them (see app and cluster); there
	// are at most 64 apps, and catalog platforms have 2–4 clusters.
	appList     []*appState
	clusterList []*clusterState
	// appStore / clusterStore are the backing arrays the list pointers
	// index into. Reset rewrites them in place, so a worker replaying
	// thousands of scenarios through one engine re-allocates state only
	// when a scenario needs more apps or clusters than any before it.
	appStore     []appState
	clusterStore []clusterState
	ambient      float64 // current ambient °C (scenario-controllable)

	// The die temperature is advanced once per thermal step, at the
	// boundaries k·thermalStepS from Reset (see thermalStep). tempC is its
	// value at the last boundary and stepE0 the platform's energy there;
	// stepT is the next boundary. stepDecay is e^(−h/τ), computed once per
	// Reset, so no step calls math.Exp. powerDirty holds the clusters
	// (by bit) re-derived since the last syncThermal, whose power it
	// must look at.
	tempC      float64
	stepE0     float64
	stepT      float64
	stepDecay  float64
	powerDirty uint64
	// steps counts the thermal steps closed over the engine's life (Reset
	// keeps it): a work count for tests.
	steps uint64

	// coreScaleStore backs every cluster's coreScale table, rewritten in
	// place by Reset like the stores above.
	coreScaleStore []float64

	ctrl  Controller
	tickS float64

	now    float64
	primed bool  // starts, stops and the first tick armed (once per Reset)
	seq    int64 // last seq handed to an armed event
	// lifecycle holds every app's start and stop in (t, seq) order, sorted
	// once by prime; the entries before cursor have been handled.
	lifecycle []hevent
	cursor    int
	tickT     float64 // time the next controller tick is due
	tickSeq   int64   // seq of that tick (0: none armed)
	alarmed   bool    // throttle alarm latched until a step ends below the clear point

	maxTempC    float64 // peak temperature over the closed steps
	overThrotS  float64 // time spent above throttle over the closed steps
	eventLog    []Event
	logEvents   bool
	migrations  int
	levelSwaps  int
	oppSwitches int

	// latLog holds every finished job's latency in completion order when
	// logLatencies is set; Reset keeps its capacity like eventLog's.
	latLog       []float64
	logLatencies bool

	// Fault accounting. offline counts clusters currently unavailable (the
	// cheap "is anything degraded" predicate); unhostedS integrates running
	// DNN app-seconds spent placed on an offline cluster, closed up to
	// unhostedT0 while unhostedN such apps run (see unhostedAt); the deg*
	// counters count the frames released, missed and dropped while any
	// cluster was offline, so reports can compare miss rates inside and
	// outside degraded windows.
	offline        int
	clusterFails   int
	clusterRepairs int
	unhostedS      float64
	unhostedT0     float64
	unhostedN      int
	degReleased    int
	degMissed      int
	degDropped     int

	// dirty holds the apps, by appList position, resident on a cluster
	// derived since the last refresh, or moved by Migrate: the only apps
	// whose rate, job, timer or downtime can have moved, so refresh visits
	// only them.
	dirty uint64

	// planEpoch is a monotone counter over planning-relevant state: the
	// running-app set, model levels, placements, OPPs and ambient. The
	// rtm manager uses it to elide replans when nothing a policy can act
	// on has changed. Job-level churn (releases, completions) does not
	// advance it — per-app statistics move continuously and policies that
	// read them opt into their own fingerprint extension instead.
	planEpoch uint64
}

// maxApps is the most apps an engine runs: one bit each in a uint64
// resident set. maxClusters is the most clusters a platform may have, for
// the same reason: one bit each in Engine.powerDirty.
const (
	maxApps     = 64
	maxClusters = 64
)

// Config configures an Engine.
type Config struct {
	// Platform is the hardware, at most 64 clusters: the engine keeps the
	// clusters whose power changed as one 64-bit set.
	Platform *hw.Platform
	// Apps lists the workloads, at most 64: each cluster keeps its
	// residents as one 64-bit set, and New and Reset reject more.
	Apps       []App
	Controller Controller // may be nil (uncontrolled baseline)
	TickS      float64    // controller epoch, finite and >= 0; 0 disables ticks
	LogEvents  bool       // retain the full event log (tests, reports)
	// LogLatencies keeps each finished job's release-to-completion
	// latency, in completion order, as Report.Latencies: the samples a
	// latency distribution needs, without the event log.
	LogLatencies bool
}

// New validates the config and builds an engine.
func New(cfg Config) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset rewinds the engine to the pristine pre-Run state New would build
// for cfg, reusing the existing backing storage: the lifecycle list, the
// per-app and per-cluster state stores and the event log all keep their
// capacity, so a worker replaying a stream of scenarios through one
// engine runs allocation-free once the stores have grown to the stream's
// high-water mark. Reset-then-Run is byte-for-byte equivalent
// to a fresh New-then-Run of the same config — the equivalence the fleet
// layer's reuse property tests pin.
//
// Reset invalidates everything handed out by the previous run: Report
// Events and Latencies slices alias the engine's logs and are rewritten in
// place. On error the engine is left partially rewound and must not be
// used until a subsequent Reset succeeds.
func (e *Engine) Reset(cfg Config) error {
	if cfg.Platform == nil {
		return fmt.Errorf("sim: nil platform")
	}
	if err := cfg.Platform.Validate(); err != nil {
		return err
	}
	if !finite(cfg.TickS) || cfg.TickS < 0 {
		return fmt.Errorf("sim: tick %g s must be finite and not negative (0 disables ticks)", cfg.TickS)
	}
	e.plat = cfg.Platform
	e.ambient = cfg.Platform.AmbientC
	e.ctrl = cfg.Controller
	e.tickS = cfg.TickS
	e.logEvents = cfg.LogEvents
	e.logLatencies = cfg.LogLatencies

	e.now, e.primed, e.seq = 0, false, 0
	e.cursor, e.tickSeq = 0, 0
	e.tempC, e.stepE0, e.stepT = cfg.Platform.AmbientC, 0, thermalStepS
	e.stepDecay = cfg.Platform.Thermal.DecayFactor(thermalStepS)
	e.alarmed, e.overThrotS = false, 0
	e.migrations, e.levelSwaps, e.oppSwitches = 0, 0, 0
	e.offline, e.clusterFails, e.clusterRepairs = 0, 0, 0
	e.unhostedS, e.unhostedT0, e.unhostedN = 0, 0, 0
	e.degReleased, e.degMissed, e.degDropped = 0, 0, 0
	e.maxTempC = cfg.Platform.AmbientC
	e.planEpoch, e.dirty = 0, 0

	// Rebuild cluster state into the reused store; pointers are taken only
	// after the store has its final size, so they stay valid.
	if n := len(cfg.Platform.Clusters); n > maxClusters {
		return fmt.Errorf("sim: platform has %d clusters, at most %d", n, maxClusters)
	}
	if cap(e.clusterStore) < len(cfg.Platform.Clusters) {
		e.clusterStore = make([]clusterState, len(cfg.Platform.Clusters))
	}
	e.clusterStore = e.clusterStore[:len(cfg.Platform.Clusters)]
	e.clusterList = e.clusterList[:0]
	// The scale store is grown to its final size first, so the appends
	// below never move it out from under the windows already handed out.
	scales := 0
	for _, c := range cfg.Platform.Clusters {
		scales += c.Cores + 1
	}
	store := slices.Grow(e.coreScaleStore[:0], scales)
	for i, c := range cfg.Platform.Clusters {
		lo := len(store)
		for n := 0; n <= c.Cores; n++ {
			store = append(store, c.CoreScale(n))
		}
		e.clusterStore[i] = clusterState{c: c, bit: 1 << i, online: true, accel: c.Type.IsAccelerator(), coreScale: store[lo:]}
		cs := &e.clusterStore[i]
		cs.setOPP(0)
		e.clusterList = append(e.clusterList, cs)
	}
	e.coreScaleStore = store
	// Walking the platform backwards and pushing each loader onto its
	// companion's list leaves every list in platform order.
	for i := len(e.clusterList) - 1; i >= 0; i-- {
		cs := e.clusterList[i]
		if name := cs.c.CompanionName; name != "" {
			cs.companion = e.cluster(name)
			if cs.c.CompanionUtil != 0 {
				cs.loadNext, cs.companion.loadHead = cs.companion.loadHead, cs
			}
		}
	}

	if len(cfg.Apps) > maxApps {
		return fmt.Errorf("sim: %d apps, at most %d", len(cfg.Apps), maxApps)
	}
	if cap(e.appStore) < len(cfg.Apps) {
		e.appStore = make([]appState, len(cfg.Apps))
	}
	e.appStore = e.appStore[:len(cfg.Apps)]
	e.appList = e.appList[:0]
	for i, a := range cfg.Apps {
		if err := e.validateApp(a); err != nil {
			return err
		}
		// Accelerators are always allocated whole; normalising here keeps
		// planner-computed placements comparable with initial ones.
		if cl := cfg.Platform.Cluster(a.Placement.Cluster); cl.Type.IsAccelerator() {
			a.Placement.Cores = cl.Cores
		}
		e.appStore[i] = appState{App: a, idx: int32(i), placed: a.Placement, level: a.Level}
		st := &e.appStore[i]
		if a.Kind == KindDNN {
			st.jobMACs = float64(a.Profile.Level(a.Level).MACs)
		}
		st.placedCS = e.cluster(a.Placement.Cluster)
		e.appList = append(e.appList, st)
	}
	e.powerDirty = 0
	for _, cs := range e.clusterList {
		e.derive(cs)
		e.powerDirty |= cs.bit
	}

	// Size the lifecycle list for every app's start and stop, and the
	// event log for a realistic run, so prime never grows the list and the
	// hot loop reaches amortised emit quickly.
	if want := 2 * len(e.appList); cap(e.lifecycle) < want {
		e.lifecycle = make([]hevent, 0, want)
	}
	e.lifecycle = e.lifecycle[:0]
	if e.logEvents && e.eventLog == nil {
		e.eventLog = make([]Event, 0, 512)
	}
	e.eventLog = e.eventLog[:0]
	if e.logLatencies && e.latLog == nil {
		e.latLog = make([]float64, 0, 512)
	}
	e.latLog = e.latLog[:0]
	return nil
}

func (e *Engine) validateApp(a App) error {
	if a.Name == "" {
		return fmt.Errorf("sim: app with empty name")
	}
	if e.app(a.Name) != nil {
		return fmt.Errorf("sim: duplicate app %q", a.Name)
	}
	cl := e.plat.Cluster(a.Placement.Cluster)
	if cl == nil {
		return fmt.Errorf("sim: app %q placed on unknown cluster %q", a.Name, a.Placement.Cluster)
	}
	switch a.Kind {
	case KindDNN:
		if err := a.Profile.Validate(); err != nil {
			return fmt.Errorf("sim: app %q: %w", a.Name, err)
		}
		if a.Level < 1 || a.Level > a.Profile.MaxLevel() {
			return fmt.Errorf("sim: app %q level %d out of range", a.Name, a.Level)
		}
		if !finite(a.PeriodS) || a.PeriodS <= 0 {
			return fmt.Errorf("sim: app %q period %f", a.Name, a.PeriodS)
		}
	case KindRender, KindBackground:
		if !finite(a.Util) || a.Util <= 0 || a.Util > 1 {
			return fmt.Errorf("sim: app %q util %f outside (0,1]", a.Name, a.Util)
		}
	default:
		return fmt.Errorf("sim: app %q unknown kind", a.Name)
	}
	if !cl.Type.IsAccelerator() && a.Placement.Cores < 1 {
		return fmt.Errorf("sim: app %q needs >= 1 core on CPU cluster", a.Name)
	}
	// A NaN start or period would never order among the pending events
	// (Run would spin forever), and a NaN or infinite one would carry into
	// every energy and temperature integral.
	if !finite(a.StartS) || !finite(a.StopS) {
		return fmt.Errorf("sim: app %q start %f and stop %f must be finite", a.Name, a.StartS, a.StopS)
	}
	if a.StopS != 0 && a.StopS <= a.StartS {
		return fmt.Errorf("sim: app %q stop %f <= start %f", a.Name, a.StopS, a.StartS)
	}
	return nil
}

// app returns the state of the named app, nil for none.
func (e *Engine) app(name string) *appState {
	for _, a := range e.appList {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// cluster returns the state of the named cluster, nil for none.
func (e *Engine) cluster(name string) *clusterState {
	for _, cs := range e.clusterList {
		if cs.c.Name == name {
			return cs
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
