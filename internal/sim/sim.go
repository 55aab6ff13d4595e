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
//   - energy accounting per cluster and lumped RC thermal integration with
//     throttle-crossing alarms;
//   - migration with a load-time cost, and runtime model-level switching;
//   - a Controller hook (the RTM) invoked on a fixed epoch and on the
//     events a manager acts on (not on frames that finish on time).
//
// Between events all rates and powers are constant, so job progress,
// energy and temperature are integrated exactly — results do not depend on
// a time-step size. Each integral is closed only where its own rate
// changes and read in closed form in between, so events that change
// nothing leave every result unchanged, bit for bit.
//
// Events at one instant run in this order: first the timers (job
// completions, ends of migration downtime and the throttle alarm) in the
// order they were armed, then the queued starts, stops, releases and
// ticks in the order they were queued. A job whose latency equals its
// period exactly therefore completes on time, and the frame released at
// that instant starts a new job rather than being dropped.
package sim

import (
	"fmt"
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

// MigrationModel prices app migration between clusters.
type MigrationModel struct {
	// BandwidthBps is the model reload bandwidth (bytes/s).
	BandwidthBps float64
	// FixedS is a fixed re-init latency per migration.
	FixedS float64
}

// DefaultMigrationModel mirrors dyndnn's switch-cost constants.
func DefaultMigrationModel() MigrationModel {
	return MigrationModel{BandwidthBps: 200e6, FixedS: 0.050}
}

// Downtime returns the migration downtime for a model of the given size.
func (m MigrationModel) Downtime(bytes int64) float64 {
	if m.BandwidthBps <= 0 {
		return m.FixedS
	}
	return m.FixedS + float64(bytes)/m.BandwidthBps
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
	// hUnblock for the end of migration downtime. The heap never holds
	// either; re-arming overwrites the slot in place.
	completionSeq  int64
	completionEst  float64
	completionKind hKind

	blockedUntil float64 // migration downtime

	// placedCS is the cluster state of the current placement — the hot
	// loop resolves it once per migration instead of once per rate query.
	placedCS *clusterState

	// Derived-value cache (see Engine.stateVer): the job's MAC/s rate,
	// valid while rateVer matches placedCS.ver.
	rateVer    uint64
	cachedRate float64

	// Stats.
	released   int
	completed  int
	missed     int
	dropped    int
	aborted    int // jobs killed by a cluster fault (in-flight or released while unhosted)
	sumLatency float64
	maxLatency float64
}

// clusterState tracks per-cluster dynamics.
type clusterState struct {
	c      *hw.Cluster
	oppIdx int
	// dynMW is the dynamic power of the current OPP at full utilisation,
	// Ceff·V²·f, kept in step with oppIdx by setOPP (see busyPowerMW).
	dynMW  float64
	online bool // availability: an offline cluster runs nothing and draws nothing

	// Energy (mJ) and busy time (seconds with any activity) are held per
	// constant-power segment: energy and busyS are closed up to segT0S,
	// and the open segment runs at segPowMW, busy or not (see syncThermal
	// and integralsAt).
	energy   float64
	busyS    float64
	segT0S   float64
	segPowMW float64
	segBusy  bool

	// companion is the CPU cluster this accelerator's inference loads
	// (nil for none), resolved once per Reset.
	companion *clusterState
	// coreScale[n] is c.CoreScale(n) for n in 0..Cores, tabulated once per
	// Reset so job-rate refreshes never call math.Pow (see rate). It is a
	// window of Engine.coreScaleStore.
	coreScale []float64

	// Derived-value caches (see Engine.stateVer). Between mutations the
	// system is piecewise-constant, so utilisation, busy power, the
	// accelerator DNN share and the any-active-DNN predicate are computed
	// once per stamp instead of once per caller. ver is the cluster's
	// stamp, moved by Engine.touch on every mutation those values can
	// observe; each value is valid while its tag matches ver.
	ver          uint64
	utilVer      uint64
	cachedUtil   float64
	cachedPow    float64
	shareVer     uint64
	cachedShare  float64
	activeVer    uint64
	cachedActive bool
}

// Engine runs the simulation.
type Engine struct {
	plat     *hw.Platform
	apps     map[string]*appState
	clusters map[string]*clusterState
	// appList / clusterList are the deterministic iteration orders:
	// appList in creation order, clusterList in platform order. The event
	// loop and snapshotting walk these instead of re-deriving order
	// through the name-keyed maps (which cost a lookup — and, for cluster
	// order, an allocation — per event).
	appList     []*appState
	clusterList []*clusterState
	// appStore / clusterStore are the backing arrays the list pointers
	// index into. Reset rewrites them in place, so a worker replaying
	// thousands of scenarios through one engine re-allocates state only
	// when a scenario needs more apps or clusters than any before it.
	appStore     []appState
	clusterStore []clusterState
	ambient      float64 // current ambient °C (scenario-controllable)
	mig          MigrationModel

	// The die temperature is held per constant-power window: between two
	// changes of total power or ambient the RC model has a closed form, so
	// it is evaluated only where a window closes (see closeWindow) or where
	// something reads it. winT0C is the temperature at the window's start
	// winT0S, winPowerW the total power through it, and winVer the stateVer
	// at which that power was last confirmed.
	winT0C    float64
	winT0S    float64
	winPowerW float64
	winVer    uint64
	// thermalDirty asks the next syncThermal to re-derive the pending
	// throttle alarm: a window opened, the ambient moved, or the alarm was
	// consumed or cleared.
	thermalDirty bool

	// coreScaleStore backs every cluster's coreScale table, rewritten in
	// place by Reset like the stores above.
	coreScaleStore []float64

	ctrl  Controller
	tickS float64

	now          float64
	primed       bool      // start, stop and first tick events queued (once per Reset)
	events       eventHeap // start, stop, release and tick entries
	seq          int64     // last seq handed to a heap entry or an armed timer
	thermalEvSeq int64     // seq of the armed throttle alarm timer (0: none); never in the heap
	thermalEst   float64   // time that alarm is due
	alarmed      bool      // throttle alarm latched until temperature drops below

	maxTempC    float64
	overThrotS  float64 // time spent above throttle
	overCritS   float64 // time spent above critical
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
	// counters split frame outcomes by whether any cluster was offline at
	// the time, so reports can compare miss rates inside and outside
	// degraded windows.
	offline        int
	clusterFails   int
	clusterRepairs int
	unhostedS      float64
	unhostedT0     float64
	unhostedN      int
	degReleased    int
	degCompleted   int
	degMissed      int
	degDropped     int

	// stateVer is the monotone counter the per-cluster cache stamps
	// (clusterState.ver) are drawn from. A mutation the derived values can
	// observe — app lifecycle, job start/finish, OPP switches, availability,
	// migrations and the end of their downtime — stamps the clusters it
	// affects. The blocked-until predicates read the clock, but they flip
	// only where an unblock timer fires and stamps. A cache entry whose tag
	// matches its cluster's stamp is exactly the value a fresh
	// recomputation would produce, bit for bit.
	stateVer uint64
	// planEpoch is a monotone counter over planning-relevant state: the
	// running-app set, model levels, placements, OPPs and ambient. The
	// rtm manager uses it to elide replans when nothing a policy can act
	// on has changed. Job-level churn (releases, completions) does not
	// advance it — per-app statistics move continuously and policies that
	// read them opt into their own fingerprint extension instead.
	planEpoch uint64
}

// Config configures an Engine.
type Config struct {
	Platform   *hw.Platform
	Apps       []App
	Controller Controller // may be nil (uncontrolled baseline)
	TickS      float64    // controller epoch; 0 disables ticks
	Migration  MigrationModel
	LogEvents  bool // retain the full event log (tests, reports)
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
// for cfg, reusing the existing backing storage: the event heap, the
// per-app and per-cluster state stores, the name-lookup maps and the event
// log all keep their capacity, so a worker replaying a stream of scenarios
// through one engine runs allocation-free once the stores have grown to
// the stream's high-water mark. Reset-then-Run is byte-for-byte equivalent
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
	e.plat = cfg.Platform
	e.ambient = cfg.Platform.AmbientC
	e.mig = cfg.Migration
	e.ctrl = cfg.Controller
	e.tickS = cfg.TickS
	e.logEvents = cfg.LogEvents
	e.logLatencies = cfg.LogLatencies
	if e.mig.BandwidthBps == 0 && e.mig.FixedS == 0 {
		e.mig = DefaultMigrationModel()
	}

	e.now, e.primed, e.seq = 0, false, 0
	e.winT0C, e.winT0S, e.winPowerW, e.winVer = cfg.Platform.AmbientC, 0, 0, 0
	e.thermalDirty = true
	e.thermalEvSeq, e.thermalEst, e.alarmed = 0, 0, false
	e.overThrotS, e.overCritS = 0, 0
	e.migrations, e.levelSwaps, e.oppSwitches = 0, 0, 0
	e.offline, e.clusterFails, e.clusterRepairs = 0, 0, 0
	e.unhostedS, e.unhostedT0, e.unhostedN = 0, 0, 0
	e.degReleased, e.degCompleted, e.degMissed, e.degDropped = 0, 0, 0, 0
	e.maxTempC = cfg.Platform.AmbientC
	// Stamps restart at 1 so the cache tags zeroed by the store rewrites
	// below are invalid until first fill.
	e.stateVer, e.planEpoch = 1, 0

	if e.apps == nil {
		e.apps = make(map[string]*appState, len(cfg.Apps))
		e.clusters = make(map[string]*clusterState, len(cfg.Platform.Clusters))
	} else {
		clear(e.apps)
		clear(e.clusters)
	}

	// Rebuild cluster state into the reused store; pointers are taken only
	// after the store has its final size, so they stay valid.
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
		e.clusterStore[i] = clusterState{c: c, online: true, ver: e.stateVer, coreScale: store[lo:]}
		cs := &e.clusterStore[i]
		cs.setOPP(0)
		e.clusters[c.Name] = cs
		e.clusterList = append(e.clusterList, cs)
	}
	e.coreScaleStore = store
	for _, cs := range e.clusterList {
		if name := cs.c.CompanionName; name != "" {
			cs.companion = e.clusters[name]
		}
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
		st.placedCS = e.clusters[a.Placement.Cluster]
		e.apps[a.Name] = st
		e.appList = append(e.appList, st)
	}

	// Size the event queue for the steady state (a handful of pending
	// events per app) and the event log for a realistic run, so the hot
	// loop reaches zero-allocation push/pop and amortised emit quickly.
	if want := 16 + 4*len(e.appList); cap(e.events) < want {
		e.events = make(eventHeap, 0, want)
	}
	e.events = e.events[:0]
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
	if _, dup := e.apps[a.Name]; dup {
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
		if a.PeriodS <= 0 {
			return fmt.Errorf("sim: app %q period %f", a.Name, a.PeriodS)
		}
	case KindRender, KindBackground:
		if a.Util <= 0 || a.Util > 1 {
			return fmt.Errorf("sim: app %q util %f outside (0,1]", a.Name, a.Util)
		}
	default:
		return fmt.Errorf("sim: app %q unknown kind", a.Name)
	}
	if !cl.Type.IsAccelerator() && a.Placement.Cores < 1 {
		return fmt.Errorf("sim: app %q needs >= 1 core on CPU cluster", a.Name)
	}
	if a.StopS != 0 && a.StopS <= a.StartS {
		return fmt.Errorf("sim: app %q stop %f <= start %f", a.Name, a.StopS, a.StartS)
	}
	return nil
}
