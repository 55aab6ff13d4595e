package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
)

// trainCfg is the battery's shared tiny-but-real training configuration:
// a dozen workloads across all platforms and classes is enough for every
// arm to win somewhere while keeping the battery in test-suite budget.
func trainCfg(seed uint64) TrainConfig {
	return TrainConfig{Seed: seed, Workloads: 12, Epochs: 1}
}

// TestTrainRejectsBadArms: config validation must fail before any
// scenario runs. An empty arm (a trailing comma in fleetsim train -arms),
// a duplicate or a parameterised arm, or a non-finite reward weight would
// otherwise surface only when the finished table fails to serialise,
// discarding the whole training run; a NaN epsilon would train a table in
// which every refinement plan explored.
func TestTrainRejectsBadArms(t *testing.T) {
	for name, bad := range map[string]func(*TrainConfig){
		"empty arm":          func(c *TrainConfig) { c.Arms = []string{"heuristic", "minenergy", ""} },
		"duplicate arm":      func(c *TrainConfig) { c.Arms = []string{"heuristic", "heuristic"} },
		"parameterised arm":  func(c *TrainConfig) { c.Arms = []string{"heuristic", "learned:x.json"} },
		"unknown arm":        func(c *TrainConfig) { c.Arms = []string{"heuristic", "nope"} },
		"single arm":         func(c *TrainConfig) { c.Arms = []string{"heuristic"} },
		"NaN epsilon":        func(c *TrainConfig) { c.Epsilon = math.NaN() },
		"epsilon above 1":    func(c *TrainConfig) { c.Epsilon = math.Inf(1) },
		"NaN miss weight":    func(c *TrainConfig) { c.MissWeight = math.NaN() },
		"Inf miss weight":    func(c *TrainConfig) { c.MissWeight = math.Inf(1) },
		"-Inf energy weight": func(c *TrainConfig) { c.EnergyWeight = math.Inf(-1) },
		"unknown class":      func(c *TrainConfig) { c.Classes = []Class{"bogus"} },
	} {
		cfg := trainCfg(1)
		bad(&cfg)
		if _, _, err := Train(cfg); err == nil {
			t.Errorf("%s: Train(%+v) succeeded, want up-front validation error", name, cfg)
		}
	}
}

// TestTrainSeedDeterminism: the trainer's core contract — same config,
// byte-identical table, regardless of worker count. This is what lets CI
// train twice and cmp, and what makes a committed table reproducible.
func TestTrainSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a fleet")
	}
	cfg := trainCfg(7)
	cfg.Workers = 1
	t1, rep1, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	t2, rep2, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := t1.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := t2.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed trained different tables at different worker counts")
	}
	if rep1.Runs != rep2.Runs || rep1.States != rep2.States {
		t.Fatalf("train reports diverged: %+v vs %+v", rep1, rep2)
	}
	if rep1.Runs != 12*3+12 {
		t.Errorf("runs = %d, want 12 workloads × 3 arms + 1 epoch × 12", rep1.Runs)
	}

	// A different seed must not (within this tiny budget, demonstrably)
	// train the identical byte stream — Seed is serialised, so even a
	// behaviourally identical table differs.
	cfg = trainCfg(8)
	t3, _, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := t3.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, b3) {
		t.Error("different seeds produced byte-identical tables")
	}
}

// TestLearnedSweepDeterminism: a fleet sweep that includes a trained
// "learned:<path>" policy is bit-identical at any worker count, exactly
// like the built-in policies — the property every shard/merge/CI cmp
// depends on.
func TestLearnedSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and sweeps a fleet")
	}
	table, _, err := Train(trainCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table.json")
	if err := table.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	cfg := GeneratorConfig{Seed: 7, Policies: []string{
		"heuristic", "maxaccuracy", "minenergy", "learned:" + path,
	}}
	rep1, res1, err := Run(cfg, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep8, res8, err := Run(cfg, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := json.Marshal(struct {
		Report
		Results []Result
	}{rep1, res1})
	if err != nil {
		t.Fatal(err)
	}
	j8, err := json.Marshal(struct {
		Report
		Results []Result
	}{rep8, res8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j8) {
		t.Fatal("learned-policy sweep differs across worker counts")
	}
	if rep1.Regret == nil {
		t.Fatal("sweep report missing regret")
	}
	if _, ok := rep1.Regret["learned:"+path]; !ok {
		t.Fatalf("regret lacks the learned policy: %v", rep1.Regret)
	}
}

// TestRegretZeroForOracle: recompute the per-workload oracle directly from
// sweep results and pin the Report.Regret invariants — regret is never
// negative, on every workload the per-metric oracle policy is charged
// exactly zero for that metric, and the independently recomputed means
// match the report.
func TestRegretZeroForOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps a fleet")
	}
	cfg := GeneratorConfig{Seed: 11, Policies: []string{"heuristic", "maxaccuracy", "minenergy"}}
	rep, results, err := Run(cfg, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regret == nil {
		t.Fatal("sweep report missing regret")
	}

	missRate := func(r Result) float64 {
		if r.Released == 0 {
			return 0
		}
		return float64(r.Missed+r.Dropped+r.JobsAborted) / float64(r.Released)
	}
	type agg struct {
		n                  int
		missSum, energySum float64
	}
	expect := map[string]*agg{}
	byWorkload := map[uint64][]Result{}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("scenario %d failed: %s", r.ID, r.Err)
		}
		byWorkload[r.Seed] = append(byWorkload[r.Seed], r)
	}
	for _, runs := range byWorkload {
		if len(runs) != 3 {
			t.Fatalf("workload has %d runs, want one per policy", len(runs))
		}
		bestMiss, bestEnergy := math.Inf(1), math.Inf(1)
		for _, r := range runs {
			bestMiss = math.Min(bestMiss, missRate(r))
			bestEnergy = math.Min(bestEnergy, r.EnergyMJ)
		}
		zeroMiss, zeroEnergy := false, false
		for _, r := range runs {
			missEx, energyEx := missRate(r)-bestMiss, r.EnergyMJ-bestEnergy
			if missEx < 0 || energyEx < 0 {
				t.Fatalf("negative excess for %s on workload %d", r.Policy, r.Seed)
			}
			// The oracle policy of each metric pays zero on it.
			zeroMiss = zeroMiss || missEx == 0
			zeroEnergy = zeroEnergy || energyEx == 0
			a := expect[r.Policy]
			if a == nil {
				a = &agg{}
				expect[r.Policy] = a
			}
			a.n++
			a.missSum += missEx
			a.energySum += energyEx
		}
		if !zeroMiss || !zeroEnergy {
			t.Fatal("no policy achieved the oracle value on its own workload")
		}
	}
	wins := 0
	for pol, a := range expect {
		got, ok := rep.Regret[pol]
		if !ok {
			t.Fatalf("report regret lacks %q", pol)
		}
		if got.Workloads != a.n {
			t.Errorf("%s: workloads = %d, want %d", pol, got.Workloads, a.n)
		}
		if want := a.missSum / float64(a.n); math.Abs(got.MissRateRegret-want) > 1e-12 {
			t.Errorf("%s: miss-rate regret = %g, recomputed %g", pol, got.MissRateRegret, want)
		}
		if want := a.energySum / float64(a.n); math.Abs(got.EnergyRegretMJ-want) > 1e-9 {
			t.Errorf("%s: energy regret = %g, recomputed %g", pol, got.EnergyRegretMJ, want)
		}
		if got.MissRateRegret < 0 || got.EnergyRegretMJ < 0 {
			t.Errorf("%s: negative regret %+v", pol, got)
		}
		wins += got.OracleWins
	}
	if wins < len(byWorkload) {
		t.Errorf("oracle wins sum to %d across %d workloads; every workload has a winner", wins, len(byWorkload))
	}
}

// TestLearnedBeatsWorstBase is the training-objective smoke CI runs: on
// the training seed itself, the learned policy's mean training cost across
// the swept workloads must undercut the worst base arm's — otherwise the
// table learned nothing and shipping it would be pure overhead.
func TestLearnedBeatsWorstBase(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and sweeps a fleet")
	}
	cfg := trainCfg(7)
	table, rep, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table.json")
	if err := table.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	learned := "learned:" + path
	sweepCfg := GeneratorConfig{
		Seed:     cfg.Seed,
		Policies: append(append([]string(nil), rep.Arms...), learned),
	}
	_, results, err := Run(sweepCfg, cfg.Workloads, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Score every policy with the exact reward the table was trained on.
	cost := map[string]float64{}
	n := map[string]int{}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("scenario %d failed: %s", r.ID, r.Err)
		}
		missRate := 0.0
		if r.Released > 0 {
			missRate = float64(r.Missed+r.Dropped) / float64(r.Released)
		}
		avgPowerW := 0.0
		if r.DurationS > 0 {
			avgPowerW = r.EnergyMJ / r.DurationS / 1000
		}
		cost[r.Policy] += table.MissWeight*missRate + table.EnergyWeight*avgPowerW
		n[r.Policy]++
	}
	worst, worstArm := math.Inf(-1), ""
	for _, arm := range rep.Arms {
		if c := cost[arm] / float64(n[arm]); c > worst {
			worst, worstArm = c, arm
		}
	}
	got := cost[learned] / float64(n[learned])
	t.Logf("learned mean cost %.4f vs worst base %q %.4f", got, worstArm, worst)
	if got >= worst {
		t.Fatalf("learned policy mean cost %.4f does not beat the worst base arm %q (%.4f)", got, worstArm, worst)
	}
}
