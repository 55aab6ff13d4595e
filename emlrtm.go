package emlrtm

import (
	"io"

	"github.com/emlrtm/emlrtm/internal/baselines"
	"github.com/emlrtm/emlrtm/internal/dataset"
	"github.com/emlrtm/emlrtm/internal/dyndnn"
	"github.com/emlrtm/emlrtm/internal/experiments"
	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/pareto"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/trace"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// ---- Dynamic DNN (the paper's application-side contribution) ----

// Aliases into the dynamic-DNN package: model construction, incremental
// training, evaluation and switch-cost accounting.
type (
	// DynDNNConfig configures the dynamic CNN architecture.
	DynDNNConfig = dyndnn.Config
	// DynDNN is a trained or trainable dynamic DNN with G nested
	// configurations selected via SetLevel.
	DynDNN = dyndnn.Model
	// TrainConfig controls the incremental trainer (Fig 3(b)).
	TrainConfig = dyndnn.TrainConfig
	// TrainReport summarises an incremental training run.
	TrainReport = dyndnn.TrainReport
	// EvalResult holds per-configuration validation metrics (Fig 4(b)).
	EvalResult = dyndnn.EvalResult
	// SwitchCostModel prices configuration/model switches (Park et al.).
	SwitchCostModel = dyndnn.SwitchCostModel
	// SwitchCost is one switch's latency/energy/bytes cost.
	SwitchCost = dyndnn.SwitchCost
)

// NewDynDNN constructs an untrained dynamic DNN.
func NewDynDNN(cfg DynDNNConfig) (*DynDNN, error) { return dyndnn.New(cfg) }

// QuickDynDNNConfig is a reduced model for fast experimentation.
func QuickDynDNNConfig() DynDNNConfig { return dyndnn.QuickConfig() }

// DefaultTrainConfig is the paper-scale incremental training recipe.
func DefaultTrainConfig() TrainConfig { return dyndnn.DefaultTrainConfig() }

// ---- Synthetic dataset (CIFAR-10 stand-in) ----

type (
	// DatasetConfig parametrises synthetic data generation.
	DatasetConfig = dataset.Config
	// Dataset holds generated train/validation tensors and labels.
	Dataset = dataset.Dataset
)

// GenerateDataset builds the deterministic synthetic classification task.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) { return dataset.Generate(cfg) }

// QuickDatasetConfig is a reduced dataset for fast experimentation.
func QuickDatasetConfig() DatasetConfig { return dataset.QuickConfig() }

// ---- Hardware platforms ----

type (
	// Platform is a complete SoC/board model.
	Platform = hw.Platform
	// Cluster is one voltage/frequency domain of a platform.
	Cluster = hw.Cluster
	// OPP is a DVFS operating performance point.
	OPP = hw.OPP
	// ThermalParams is the lumped RC thermal model.
	ThermalParams = hw.ThermalParams
)

// OdroidXU3 returns the paper's primary evaluation board, calibrated to
// Table I.
func OdroidXU3() *Platform { return hw.OdroidXU3() }

// JetsonNano returns the paper's second Table I platform.
func JetsonNano() *Platform { return hw.JetsonNano() }

// FlagshipSoC returns a representative NPU-equipped phone SoC (the Fig 2
// scenario platform).
func FlagshipSoC() *Platform { return hw.FlagshipSoC() }

// Platforms returns every built-in platform keyed by name.
func Platforms() map[string]*Platform { return hw.Catalog() }

// ---- Operating points, Pareto queries, budgets ----

type (
	// ModelProfile characterises a dynamic DNN per level for the perf
	// model (MACs, accuracy, memory).
	ModelProfile = perf.ModelProfile
	// LevelSpec is one level of a ModelProfile.
	LevelSpec = perf.LevelSpec
	// OperatingPoint is one point of the E/P/t/accuracy space (Fig 4(a)).
	OperatingPoint = perf.OperatingPoint
	// EnumerateOptions filters operating-point enumeration.
	EnumerateOptions = perf.EnumerateOptions
	// Budget expresses latency/energy/power/accuracy constraints.
	Budget = pareto.Budget
)

// PaperReferenceProfile is the paper's dynamic DNN with published Fig 4(b)
// accuracies and the Table I calibration workload.
func PaperReferenceProfile() ModelProfile { return perf.PaperReferenceProfile() }

// OperatingPoints enumerates the space of a profile on a platform.
func OperatingPoints(p *Platform, prof ModelProfile, opt EnumerateOptions) []OperatingPoint {
	return perf.Enumerate(p, prof, opt)
}

// BestOperatingPoint selects the feasible point with maximum accuracy,
// then minimum energy (the paper's worked-example rule). ok is false when
// the budget is unsatisfiable.
func BestOperatingPoint(points []OperatingPoint, b Budget) (OperatingPoint, bool) {
	return pareto.Best(points, b)
}

// MinEnergyOperatingPoint selects the feasible point with minimum energy.
func MinEnergyOperatingPoint(points []OperatingPoint, b Budget) (OperatingPoint, bool) {
	return pareto.MinEnergy(points, b)
}

// ParetoFrontier filters points to the (latency, energy, -accuracy)
// non-dominated subset.
func ParetoFrontier(points []OperatingPoint) []OperatingPoint {
	return pareto.Frontier(points, pareto.LatencyEnergyMetric)
}

// ---- Simulation and runtime management (Fig 2 / Fig 5) ----

type (
	// App describes a simulated workload (DNN stream, render, background).
	App = sim.App
	// Placement binds an app to a cluster and core count.
	Placement = sim.Placement
	// Engine is the discrete-event simulator.
	Engine = sim.Engine
	// SimConfig configures an Engine.
	SimConfig = sim.Config
	// SimReport is the outcome of a simulation run.
	SimReport = sim.Report
	// AppInfo is the observable state of one simulated app.
	AppInfo = sim.AppInfo
	// Controller is the runtime-manager hook invoked by the engine.
	Controller = sim.Controller
	// Event is an observable simulator event.
	Event = sim.Event
	// SimSnapshot is a read-only capture of the engine's observable state:
	// the clock (NowS), the thermal state, the Platform and every app and
	// cluster. Engine.SnapshotInto fills a zero one, or rebuilds an
	// existing one in place: its Apps and Clusters slices are reused and
	// every entry is a plain value filled where it lies, so a controller
	// snapshotting every tick allocates nothing once they have grown.
	SimSnapshot = sim.Snapshot

	// Manager is the paper's runtime resource manager (Fig 5): the
	// actuation shell around a pluggable planning Policy. Its
	// KnobsAndMonitors method names the knobs it turns and the monitors
	// it reads.
	Manager = rtm.Manager
	// Requirement is an application's demands on the manager.
	Requirement = rtm.Requirement
	// AppRequirement is one app's Requirement, keyed by the app's name.
	AppRequirement = rtm.AppRequirement
	// Requirements lists per-app requirements for NewManager; an app
	// named twice takes its later entry.
	Requirements = rtm.Requirements
	// Policy is a pluggable planning strategy: a pure function from a
	// read-only View to one Assignment per running DNN.
	Policy = rtm.Policy
	// View is the read-only system snapshot a Policy plans over: an
	// embedded SimSnapshot plus the manager's thermal margin, power budget
	// and resolved requirements. The manager rebuilds it in place each
	// replan; the built-in and learned policies plan over it there, and
	// any other Policy gets a clone (View.CloneInto clones without
	// allocating once the buffers have grown).
	View = rtm.View
	// Assignment is one planned operating point for an app.
	Assignment = rtm.Assignment
	// Scenario is a scripted workload timeline.
	Scenario = workload.Scenario
)

// DefaultPolicy is the planning policy NewManager installs (the paper's
// heuristic) and the name the empty string resolves to.
const DefaultPolicy = rtm.DefaultPolicy

// RegisterPolicy adds a planning-policy factory to the registry; the name
// then works everywhere — Manager.SetPolicy via NewPolicy, fleet sweeps,
// fleetsim -policies. It panics on duplicate or empty names.
func RegisterPolicy(name string, factory func() Policy) { rtm.Register(name, factory) }

// Policies lists all registered planning-policy names, sorted.
func Policies() []string { return rtm.Policies() }

// NewPolicy instantiates a registered planning policy by name ("" =
// DefaultPolicy; "<prefix>:<arg>" resolves parameterised families, e.g.
// "learned:table.json").
func NewPolicy(name string) (Policy, error) { return rtm.NewPolicy(name) }

// ---- Learned policy (trained strategy selection) ----

type (
	// LearnedTable is a trained state → base-policy selection table: the
	// serialisable artifact behind the "learned:<table.json>" policy.
	LearnedTable = rtm.LearnedTable
	// LearnedState is one discretised state's per-arm training record.
	LearnedState = rtm.LearnedState
	// PolicyTrainConfig parametrises offline training of a LearnedTable
	// over a seeded fleet.
	PolicyTrainConfig = fleet.TrainConfig
	// PolicyTrainReport summarises a training run (per-arm sweep costs,
	// state coverage).
	PolicyTrainReport = fleet.TrainReport
	// ArmTrainStats is one arm's pure-sweep summary in a
	// PolicyTrainReport.
	ArmTrainStats = fleet.ArmTrainStats
)

// TrainPolicy trains a learned policy selection table on cfg.Workloads
// seeded fleet workloads: a full per-arm sweep, then cfg.Epochs
// epsilon-greedy refinement epochs. Same config, byte-identical table, at
// any worker count.
func TrainPolicy(cfg PolicyTrainConfig) (*LearnedTable, PolicyTrainReport, error) {
	return fleet.Train(cfg)
}

// ReadLearnedTable reads and validates a trained table file.
func ReadLearnedTable(path string) (*LearnedTable, error) { return rtm.ReadLearnedTableFile(path) }

// Workload kind constants re-exported for App construction.
const (
	KindDNN        = sim.KindDNN
	KindRender     = sim.KindRender
	KindBackground = sim.KindBackground
)

// NewEngine validates the config and builds a simulator.
func NewEngine(cfg SimConfig) (*Engine, error) { return sim.New(cfg) }

// NewManager builds a runtime manager with per-app requirements. The
// manager copies reqs and never writes to it.
func NewManager(reqs Requirements) *Manager { return rtm.NewManager(reqs) }

// NewGovernorController builds the governor-only baseline controller: the
// ondemand DVFS governor on every cluster, with no mapping or model scaling.
func NewGovernorController() Controller { return rtm.NewGovernorController() }

// Fig2Scenario returns the paper's Fig 2 runtime timeline.
func Fig2Scenario() Scenario { return workload.Fig2Scenario() }

// RunScenario executes a scripted scenario under a fresh manager and
// returns the engine, manager and report.
func RunScenario(s Scenario, p *Platform, tickS float64, logf func(string, ...any)) (*Engine, *Manager, SimReport, error) {
	return workload.Run(s, p, tickS, logf)
}

// ---- Fleet-scale scenario harness ----

type (
	// FleetScenario is one generated fleet member: a scripted workload
	// bound to a catalog platform. A generated one is read-only: the
	// policy runs of a workload share its script's slices and map, and
	// every scenario on a platform shares its profile levels with the
	// generator. Set top-level fields on a copy; write no element.
	FleetScenario = fleet.Scenario
	// FleetClass labels a scenario's disturbance pattern.
	FleetClass = fleet.Class
	// FleetGeneratorConfig parametrises scenario sampling.
	FleetGeneratorConfig = fleet.GeneratorConfig
	// FleetGenerator samples scenarios deterministically from a seed.
	FleetGenerator = fleet.Generator
	// FleetRunner fans scenarios out over a bounded worker pool.
	FleetRunner = fleet.Runner
	// FleetResult is the compact outcome of one scenario run.
	FleetResult = fleet.Result
	// FleetLatencyRun is one entry of FleetResult.Latencies: Count job
	// latencies of ValueS seconds, a whole number of nanoseconds.
	FleetLatencyRun = fleet.LatencyRun
	// FleetReport is the aggregate fleet outcome with per-platform and
	// per-class breakdowns.
	FleetReport = fleet.Report
	// FleetGroupStats summarises one slice of the fleet.
	FleetGroupStats = fleet.GroupStats
	// FleetRegretStats quantifies a swept policy's distance from the
	// per-workload oracle (best policy in the sweep on the same
	// bit-identical workload).
	FleetRegretStats = fleet.RegretStats
	// FleetShardResult is one process's share of a fleet run: results for
	// a contiguous scenario range plus the header that proves shard
	// compatibility on merge.
	FleetShardResult = fleet.ShardResult
)

// FleetShardFormatVersion is the current shard-file format version.
const FleetShardFormatVersion = fleet.ShardFormatVersion

// NewFleetGenerator validates the config against the platform catalog.
func NewFleetGenerator(cfg FleetGeneratorConfig) (*FleetGenerator, error) {
	return fleet.NewGenerator(cfg)
}

// AggregateFleet folds per-scenario results into the fleet report.
func AggregateFleet(seed uint64, results []FleetResult) FleetReport {
	return fleet.Aggregate(seed, results)
}

// RunFleet generates n workloads, runs each under every policy in
// cfg.Policies (default: just the heuristic) across the worker pool
// (workers <= 0 means NumCPU) and aggregates; sweeps gain a ByPolicy
// breakdown. The report is bit-identical for any worker count.
func RunFleet(cfg FleetGeneratorConfig, n, workers int) (FleetReport, []FleetResult, error) {
	return fleet.Run(cfg, n, workers)
}

// FleetShardRange returns the contiguous scenario index range [lo, hi)
// owned by shard index (0-based) of count over a total-scenario fleet.
func FleetShardRange(total, index, count int) (lo, hi int) {
	return fleet.ShardRange(total, index, count)
}

// ReadFleetShardFile reads and validates one shard stream file from disk.
func ReadFleetShardFile(path string) (FleetShardResult, error) {
	return fleet.ReadShardFile(path)
}

// MergeFleetShards combines shards covering a whole fleet — rejecting
// gaps, overlaps, and seed or config mismatches — into a report
// byte-identical to the single-process run.
func MergeFleetShards(shards ...FleetShardResult) (FleetReport, []FleetResult, error) {
	return fleet.Merge(shards...)
}

// ---- Streaming shard results & orchestration ----

type (
	// FleetOrchestratorConfig parametrises OrchestrateFleet.
	FleetOrchestratorConfig = fleet.OrchestratorConfig
	// FleetShardSpec is one shard assignment handed to an orchestrator
	// Start function.
	FleetShardSpec = fleet.ShardSpec
	// FleetShardProcess is the orchestrator's handle on a dispatched
	// shard (Wait/Kill).
	FleetShardProcess = fleet.ShardProcess
)

// ResumeFleetShard runs shard index/count of a fleet, streaming each
// completed result to the NDJSON file at path. An existing partial stream
// — say, from a killed process — is validated against cfg, its intact
// records are kept, any torn trailing line is truncated, and only the
// missing scenarios run. The returned shard is byte-identical to the same
// range of RunFleet's results (see FleetShardRange), however often the
// shard was interrupted; merging every shard with MergeFleetShards is
// byte-identical to RunFleet over the same config and total.
func ResumeFleetShard(path string, cfg FleetGeneratorConfig, total, index, count, workers int) (FleetShardResult, error) {
	return (&fleet.Runner{Workers: workers}).ResumeShard(path, cfg, total, index, count)
}

// OrchestrateFleet runs a whole fleet as supervised shard processes:
// dispatching, monitoring stream progress, killing and retrying stalled or
// crashed shards (each retry resumes from the last flushed scenario), and
// merging into a report byte-identical to RunFleet of the same config.
func OrchestrateFleet(cfg FleetOrchestratorConfig) (FleetReport, []FleetResult, error) {
	return fleet.Orchestrate(cfg)
}

// FleetCommandStart adapts an argv builder into an orchestrator Start
// function that exec's each shard as a subprocess.
func FleetCommandStart(argv func(FleetShardSpec) []string, errw io.Writer) func(FleetShardSpec) (FleetShardProcess, error) {
	return fleet.CommandStart(argv, errw)
}

// FleetStreamFileName is the stream file OrchestrateFleet assigns to shard
// index (0-based) of count inside its Dir.
func FleetStreamFileName(index, count int) string { return fleet.StreamFileName(index, count) }

// ---- Baselines ----

type (
	// StaticModelSet is the NetAdapt-style per-setting model deployment.
	StaticModelSet = baselines.StaticModelSet
	// BigLittle is the two-model baseline of Park et al.
	BigLittle = baselines.BigLittle
)

// BuildStaticSet generates the static model per hardware setting meeting a
// latency budget.
func BuildStaticSet(p *Platform, prof ModelProfile, budgetS float64) StaticModelSet {
	return baselines.BuildStaticSet(p, prof, budgetS)
}

// NewBigLittle builds the two-model baseline from a profile's extremes.
func NewBigLittle(prof ModelProfile, escalationRate float64) BigLittle {
	return baselines.NewBigLittle(prof, escalationRate)
}

// ---- Experiments (tables & figures) ----

type (
	// ExperimentOptions selects experiment scale and seeding.
	ExperimentOptions = experiments.Options
	// Table is an aligned text/CSV table.
	Table = trace.Table
	// Figure is a set of named series rendered as CSV.
	Figure = trace.Figure
)

// Experiment drivers; internal/experiments' package doc keeps the index.
var (
	// Table1 reproduces Table I from the calibrated platform models.
	Table1 = experiments.Table1
	// Fig1 reproduces the design-time platform mapping.
	Fig1 = experiments.Fig1
	// Fig2 runs the runtime scenario under the manager.
	Fig2 = experiments.Fig2
	// TrainDynamic runs incremental training and the Fig 4(b) evaluation.
	TrainDynamic = experiments.TrainDynamic
	// Fig4a enumerates the E/t operating-point space.
	Fig4a = experiments.Fig4a
	// Fig4Budgets reproduces the Section IV worked examples.
	Fig4Budgets = experiments.Fig4Budgets
	// Fig5 runs the closed-loop disturbance comparison.
	Fig5 = experiments.Fig5
	// AblationKnobs measures the knob-combination trade-off range.
	AblationKnobs = experiments.AblationKnobs
	// AblationSwitching compares storage/switching across deployments.
	AblationSwitching = experiments.AblationSwitching
	// AblationNoRTM compares the manager against a governor on Fig 2.
	AblationNoRTM = experiments.AblationNoRTM
)
