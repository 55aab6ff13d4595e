package emlrtm

// Integration tests through the public facade: the workflows a downstream
// user runs, end to end, without touching internal packages directly.

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
)

func TestFacadePlatformCatalog(t *testing.T) {
	plats := Platforms()
	for _, name := range []string{"odroid-xu3", "jetson-nano", "flagship-soc"} {
		p, ok := plats[name]
		if !ok {
			t.Fatalf("platform %q missing from catalog", name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("platform %q invalid: %v", name, err)
		}
	}
	if OdroidXU3().Name != "odroid-xu3" || JetsonNano().Name != "jetson-nano" ||
		FlagshipSoC().Name != "flagship-soc" {
		t.Fatal("named constructors disagree with catalog")
	}
}

func TestFacadeOperatingPointWorkflow(t *testing.T) {
	points := OperatingPoints(OdroidXU3(), PaperReferenceProfile(), EnumerateOptions{})
	if len(points) != 116 {
		t.Fatalf("points = %d", len(points))
	}
	best, ok := BestOperatingPoint(points, Budget{MaxLatencyS: 0.400, MaxEnergyMJ: 100})
	if !ok || best.Cluster != "a7" || best.LevelName != "100%" {
		t.Fatalf("worked example broken through facade: %v", best)
	}
	cheap, ok := MinEnergyOperatingPoint(points, Budget{})
	if !ok {
		t.Fatal("unconstrained min-energy failed")
	}
	for _, p := range points {
		if p.EnergyMJ < cheap.EnergyMJ {
			t.Fatal("MinEnergyOperatingPoint not minimal")
		}
	}
	front := ParetoFrontier(points)
	if len(front) == 0 || len(front) > len(points) {
		t.Fatalf("frontier size %d", len(front))
	}
}

func TestFacadeTrainSwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	cfg := QuickDatasetConfig()
	cfg.TrainN, cfg.ValN = 600, 300
	cfg.Noise = 0.5
	ds, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewDynDNN(QuickDynDNNConfig())
	if err != nil {
		t.Fatal(err)
	}
	tc := DefaultTrainConfig()
	tc.EpochsPerStep = 2
	tc.LR = 0.05
	if _, err := model.TrainIncremental(ds, tc); err != nil {
		t.Fatal(err)
	}

	// Runtime switching through the facade.
	x := ds.ValX.Slice4D(0, 2)
	model.SetLevel(1)
	small := model.Forward(x).Clone()
	model.SetLevel(model.Levels())
	full := model.Forward(x)
	if small.AllClose(full, 0) {
		t.Fatal("levels produce identical logits; group wiring broken")
	}

}

func TestFacadeScenarioRun(t *testing.T) {
	engine, mgr, report, err := RunScenario(Fig2Scenario(), FlagshipSoC(), 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.DurationS != 35 {
		t.Fatalf("duration %.1f", report.DurationS)
	}
	d1, err := engine.App("dnn1")
	if err != nil {
		t.Fatal(err)
	}
	if d1.Placement.Cluster != "npu" {
		t.Fatalf("dnn1 ended on %s, want npu co-location", d1.Placement.Cluster)
	}
	if mgr.Plans() < 4 {
		t.Fatalf("plans = %d", mgr.Plans())
	}
}

func TestFacadeCustomSimulation(t *testing.T) {
	// Build a custom workload directly against the facade types.
	app := App{
		Name:       "cam",
		Kind:       KindDNN,
		Profile:    PaperReferenceProfile(),
		Level:      4,
		PeriodS:    0.5,
		ModelBytes: 350 << 10,
		Placement:  Placement{Cluster: "a15", Cores: 4},
	}
	mgr := NewManager(Requirements{
		{App: "cam", Requirement: Requirement{MaxLatencyS: 0.25, Priority: 1}},
	})
	engine, err := NewEngine(SimConfig{
		Platform:   OdroidXU3(),
		Apps:       []App{app},
		Controller: mgr,
		TickS:      0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(5); err != nil {
		t.Fatal(err)
	}
	info, _ := engine.App("cam")
	if info.Completed == 0 || info.Missed+info.Dropped > 1 {
		t.Fatalf("custom sim QoS: %+v", info)
	}
}

func TestFacadeGovernorBaseline(t *testing.T) {
	gov := NewGovernorController()
	engine, err := NewEngine(SimConfig{
		Platform: OdroidXU3(),
		Apps: []App{{
			Name: "bg", Kind: KindBackground, Util: 0.9,
			Placement: Placement{Cluster: "a15", Cores: 4},
		}},
		Controller: gov,
		TickS:      0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(5); err != nil {
		t.Fatal(err)
	}
	info, err := engine.Cluster("a15")
	if err != nil {
		t.Fatal(err)
	}
	// Util 0.9 exceeds the up-threshold: ondemand must have raised the
	// frequency to maximum.
	if info.OPPIndex != len(OdroidXU3().Cluster("a15").OPPs)-1 {
		t.Fatalf("ondemand left OPP %d", info.OPPIndex)
	}
}

func TestFacadeShardedFleet(t *testing.T) {
	// The distributed-fleet workflow end to end through the facade: stream
	// each shard to a file, read it back, merge, and match the
	// single-process report byte for byte.
	cfg := FleetGeneratorConfig{Seed: 21}
	const total = 6
	single, singleRes, err := RunFleet(cfg, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var shards []FleetShardResult
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, FleetStreamFileName(i, 2))
		if _, err := ResumeFleetShard(path, cfg, total, i, 2, 2); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFleetShardFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The streamed shard's results equal the same range of the
		// single-process run.
		lo, hi := FleetShardRange(len(singleRes), i, 2)
		bj, _ := json.Marshal(back.Results)
		mj, _ := json.Marshal(singleRes[lo:hi])
		if !bytes.Equal(bj, mj) {
			t.Fatalf("shard %d: streamed and read back != RunFleet results [%d,%d)", i, lo, hi)
		}
		shards = append(shards, back)
	}
	lo, hi := FleetShardRange(total, 0, 2)
	if lo != 0 || hi != 3 || shards[0].Lo != lo || shards[0].Hi != hi {
		t.Fatalf("shard 0 range [%d,%d), want [0,3)", shards[0].Lo, shards[0].Hi)
	}
	merged, _, err := MergeFleetShards(shards[1], shards[0])
	if err != nil {
		t.Fatal(err)
	}
	mj, _ := json.Marshal(merged)
	sj, _ := json.Marshal(single)
	if !bytes.Equal(mj, sj) {
		t.Fatalf("merged report != single-process report:\n%s\n%s", mj, sj)
	}
	if _, _, err := MergeFleetShards(shards[0]); err == nil {
		t.Fatal("partial coverage accepted")
	}
}

func TestFacadePolicySweep(t *testing.T) {
	names := Policies()
	if len(names) < 3 {
		t.Fatalf("Policies() = %v, want the three built-ins", names)
	}
	if _, err := NewPolicy("definitely-not-registered"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	p, err := NewPolicy("")
	if err != nil || p.Name() != DefaultPolicy {
		t.Fatalf("NewPolicy(\"\") = %v, %v", p, err)
	}

	// A custom policy registered through the facade is sweepable by name.
	RegisterPolicy("facade-test-custom", func() Policy { return facadeCustomPolicy{} })
	rep, results, err := RunFleet(FleetGeneratorConfig{
		Seed:      6,
		Platforms: []string{"odroid-xu3"},
		Classes:   []FleetClass{"steady"},
		Policies:  []string{"heuristic", "facade-test-custom"},
	}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ByPolicy) != 2 {
		t.Fatalf("ByPolicy = %v, want heuristic + custom", rep.ByPolicy)
	}
	if _, ok := rep.ByPolicy["facade-test-custom"]; !ok {
		t.Fatal("custom policy missing from the sweep report")
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 2 workloads × 2 policies", len(results))
	}
	for _, r := range results {
		if r.Err != "" {
			t.Errorf("%s/%s: %s", r.Name, r.Policy, r.Err)
		}
	}
}

// facadeCustomPolicy proves third-party strategies slot in: it delegates
// planning to the built-in minenergy policy under its own name.
type facadeCustomPolicy struct{}

func (facadeCustomPolicy) Name() string { return "facade-test-custom" }
func (facadeCustomPolicy) Plan(v View) []Assignment {
	p, err := NewPolicy("minenergy")
	if err != nil {
		return nil
	}
	return p.Plan(v)
}

// TestFacadeLearnedPolicy walks the learned-policy surface end to end
// through the facade: train a tiny table, serialise it, resolve it back
// through the parameterised registry name, and sweep it against a base
// policy with regret in the report.
func TestFacadeLearnedPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a fleet")
	}
	cfg := PolicyTrainConfig{
		Seed: 6, Workloads: 4, Epochs: 1,
		Platforms: []string{"odroid-xu3"}, Classes: []FleetClass{"steady"},
	}
	table, rep, err := TrainPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.States == 0 || len(rep.Arms) != 3 {
		t.Fatalf("train report %+v, want states and the three default arms", rep)
	}
	path := filepath.Join(t.TempDir(), "table.json")
	if err := table.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLearnedTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fallback != table.Fallback {
		t.Fatalf("round-trip changed the fallback: %q vs %q", back.Fallback, table.Fallback)
	}
	name := "learned:" + path
	pol, err := NewPolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != name {
		t.Fatalf("Name() = %q, want %q", pol.Name(), name)
	}
	frep, _, err := RunFleet(FleetGeneratorConfig{
		Seed: 6, Platforms: []string{"odroid-xu3"}, Classes: []FleetClass{"steady"},
		Policies: []string{"heuristic", name},
	}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := frep.ByPolicy[name]; !ok {
		t.Fatalf("learned policy missing from ByPolicy: %v", frep.ByPolicy)
	}
	lr, ok := frep.Regret[name]
	if !ok {
		t.Fatalf("learned policy missing from Regret: %v", frep.Regret)
	}
	if lr.Workloads != 4 || lr.MissRateRegret < 0 || lr.EnergyRegretMJ < 0 {
		t.Fatalf("learned regret %+v, want 4 workloads and non-negative regret", lr)
	}
}

func TestFacadeBaselines(t *testing.T) {
	prof := PaperReferenceProfile()
	set := BuildStaticSet(OdroidXU3(), prof, 0.25)
	if set.StorageBytes() <= prof.Levels[len(prof.Levels)-1].MemBytes {
		t.Fatal("static set must outweigh the dynamic model")
	}
	bl := NewBigLittle(prof, 0.3)
	if bl.StorageBytes() != prof.Levels[0].MemBytes+prof.Levels[len(prof.Levels)-1].MemBytes {
		t.Fatal("big/little must store exactly the little and the big model")
	}
}

func TestFacadeExperimentDrivers(t *testing.T) {
	t1 := Table1(0.712)
	if t1.MaxRelativeError() > 0.05 {
		t.Fatal("Table I calibration drifted")
	}
	f4 := Fig4a(PaperReferenceProfile())
	if len(f4.Points) != 116 {
		t.Fatal("Fig 4(a) space wrong")
	}
	b := Fig4Budgets(PaperReferenceProfile())
	if !b.Cases[0].Feasible {
		t.Fatal("budget case infeasible")
	}
	k := AblationKnobs(PaperReferenceProfile())
	if len(k.Sets) != 5 {
		t.Fatal("knob ablation wrong")
	}
}
