package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/trace"
)

func quickOpts() Options { return Options{Quick: true, Seed: 1} }

func TestTable1MatchesPaperWithin5Percent(t *testing.T) {
	res := Table1(perf.PaperAccuracies[3])
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 (paper Table I)", len(res.Rows))
	}
	if err := res.MaxRelativeError(); err > 0.05 {
		t.Fatalf("worst cell deviates %.1f%% from the paper (budget 5%%)", err*100)
	}
	// Platform-independent column identical across rows.
	for _, r := range res.Rows {
		if r.Top1 != res.Rows[0].Top1 {
			t.Fatal("top-1 must be platform-independent")
		}
	}
	if tableRows(res.Table) != 10 {
		t.Fatal("rendered table incomplete")
	}
}

func TestFig4aSpaceShape(t *testing.T) {
	res := Fig4a(perf.PaperReferenceProfile())
	if len(res.Points) != 116 {
		t.Fatalf("points = %d, want 116 (4 configs × 29 OPPs)", len(res.Points))
	}
	if len(res.Figure.Series) != 8 {
		t.Fatalf("series = %d, want 8 (2 clusters × 4 configs)", len(res.Figure.Series))
	}
	// Paper axes: time up to ~1.2 s on the A7 at 200 MHz with 25-100%
	// models; energy up to ~350 mJ.
	if res.Stats.MaxLatencyS < 1.0 || res.Stats.MaxLatencyS > 2.5 {
		t.Fatalf("max latency %.2fs outside the paper's axis range", res.Stats.MaxLatencyS)
	}
	if res.Stats.MaxEnergyMJ < 200 || res.Stats.MaxEnergyMJ > 450 {
		t.Fatalf("max energy %.0fmJ outside the paper's axis range", res.Stats.MaxEnergyMJ)
	}
	if n := strings.Count(res.Figure.CSV(), "\n") - 1; n != 116 {
		t.Fatal("figure points mismatch")
	}
}

func TestFig4BudgetsReproduceWorkedExamples(t *testing.T) {
	res := Fig4Budgets(perf.PaperReferenceProfile())
	if len(res.Cases) != 2 {
		t.Fatal("want 2 worked examples")
	}
	c1 := res.Cases[0]
	if !c1.Feasible || c1.Selected.Cluster != "a7" || c1.Selected.LevelName != "100%" {
		t.Fatalf("case 1 selected %v, paper says A7 100%%", c1.Selected)
	}
	c2 := res.Cases[1]
	if !c2.Feasible || c2.Selected.Cluster != "a15" || c2.Selected.LevelName != "75%" {
		t.Fatalf("case 2 selected %v, paper says A15 75%%", c2.Selected)
	}
}

func TestFig1DesignTimeMapping(t *testing.T) {
	res := Fig1(perf.PaperReferenceProfile())
	if len(res.Cells) != 9 {
		t.Fatalf("cells = %d, want 3 platforms × 3 requirements", len(res.Cells))
	}
	// The flagship (NPU) must satisfy every requirement.
	for _, req := range Fig1Requirements() {
		cell, ok := cellFor(res, "flagship-soc", req.Name)
		if !ok || !cell.Feasible {
			t.Fatalf("flagship must satisfy %q", req.Name)
		}
	}
	// The CPU-only XU3 must fail at least the 60 fps requirement (the
	// paper's premise: weaker platforms need more compression or miss).
	cell, ok := cellFor(res, "odroid-xu3", "60 fps / medium accuracy")
	if !ok {
		t.Fatal("missing XU3 cell")
	}
	if cell.Feasible {
		t.Fatal("XU3 should not sustain 60 fps at medium accuracy with this model")
	}
	// Capability ordering: more capable platforms run the same requirement
	// at lower energy. Compare the 1 fps case.
	flag, _ := cellFor(res, "flagship-soc", "1 fps / very-high accuracy")
	xu3, _ := cellFor(res, "odroid-xu3", "1 fps / very-high accuracy")
	if !flag.Feasible || !xu3.Feasible {
		t.Fatal("1 fps must be feasible on both")
	}
	if flag.Point.EnergyMJ >= xu3.Point.EnergyMJ {
		t.Fatal("flagship should serve 1 fps more efficiently than the XU3")
	}
}

func TestTrainDynamicQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	res, err := TrainDynamic(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evals) != 4 {
		t.Fatalf("evals = %d", len(res.Evals))
	}
	if !res.AccuracyMonotone() {
		accs := make([]float64, len(res.Evals))
		for i, e := range res.Evals {
			accs[i] = e.Accuracy
		}
		t.Fatalf("accuracy not monotone: %v", accs)
	}
	// Paper spread is 15.2 points; the quick-scale synthetic task keeps
	// the shape but with a wider spread (the 25% tower underfits harder
	// under the reduced training budget).
	if s := res.AccuracySpread(); s < 0.05 || s > 0.65 {
		t.Fatalf("accuracy spread %.3f implausible", s)
	}
	if err := res.Profile.Validate(); err != nil {
		t.Fatalf("measured profile invalid: %v", err)
	}
	if !strings.Contains(res.Fig4b.String(), "25%") {
		t.Fatal("Fig 4(b) table missing configs")
	}
	if got := trainedDigest(res); got != trainedQuickSHA256 {
		t.Fatalf("trained bits moved: sha256 %s, pinned %s", got, trainedQuickSHA256)
	}
}

// trainedQuickSHA256 pins TrainDynamic(quickOpts()) bit for bit: the
// dataset, initialisation and minibatch order all draw from rng.RNG
// streams, and the quick CSV golden skips fig3, so this is what holds
// those streams fixed.
const trainedQuickSHA256 = "315bf453e5ab8a5ef20c5c081b674d4396aad80894f7e7055da04629d26df4e5"

// trainedDigest hashes every trained parameter's name and value bits, every
// evaluation's fields and the rendered Fig 4(b) table.
func trainedDigest(res TrainResult) string {
	h := sha256.New()
	u64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for _, p := range res.Model.Net.Params() {
		h.Write([]byte(p.Name))
		for _, v := range p.Value.Data() {
			u64(uint64(math.Float32bits(v)))
		}
	}
	for _, e := range res.Evals {
		u64(uint64(e.Level))
		h.Write([]byte(e.LevelName))
		f64(e.Accuracy)
		for _, a := range e.PerClass {
			f64(a)
		}
		f64(e.ClassStd)
		f64(e.Confidence)
		u64(uint64(e.MACs))
		u64(uint64(e.Params))
		u64(uint64(e.MemoryBytes))
	}
	h.Write([]byte(res.Fig4b.String()))
	return hex.EncodeToString(h.Sum(nil))
}

func TestFig2ExperimentGoldenShape(t *testing.T) {
	res, err := Fig2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.CoLocated() {
		t.Fatalf("phase (d) failed: dnn1 on %s, dnn2 on %s",
			res.FinalDNN1.Placement.Cluster, res.FinalDNN2.Placement.Cluster)
	}
	if res.AlarmAtS < 18 || res.AlarmAtS > 25 {
		t.Fatalf("thermal alarm at %.2fs, want within (18,25)", res.AlarmAtS)
	}
	if res.Plans < 4 {
		t.Fatalf("only %d plans", res.Plans)
	}
	if tableRows(res.Timeline) < 6 {
		t.Fatal("timeline too sparse")
	}
}

func TestFig5ManagerBeatsGovernor(t *testing.T) {
	res, err := Fig5(perf.PaperReferenceProfile(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	mBad := badFraction(res.Managed)
	bBad := badFraction(res.Baseline)
	if mBad > 0.2 {
		t.Fatalf("managed bad fraction %.2f too high", mBad)
	}
	if bBad <= mBad {
		t.Fatalf("governor baseline (%.2f) should be worse than RTM (%.2f)", bBad, mBad)
	}
	if len(res.Knobs) == 0 || len(res.Monitors) == 0 {
		t.Fatal("knob/monitor registry empty")
	}
}

func TestAblationKnobsWiderRange(t *testing.T) {
	res := AblationKnobs(perf.PaperReferenceProfile())
	if len(res.Sets) != 5 {
		t.Fatalf("sets = %d", len(res.Sets))
	}
	all := coverageOf(res, "all three knobs")
	for _, s := range res.Sets {
		if s.Coverage > all+1e-9 {
			t.Fatalf("%q coverage %.2f exceeds all-knobs %.2f", s.Name, s.Coverage, all)
		}
	}
	// The combination must strictly beat each single knob (Section IV).
	for _, single := range []string{
		"DVFS only (A15, 100% model)",
		"model only (A15 @ max freq)",
		"mapping only (100% model @ max freq)",
	} {
		if c := coverageOf(res, single); c >= all {
			t.Fatalf("single knob %q coverage %.2f not below combination %.2f", single, c, all)
		}
	}
}

func TestAblationSwitchingFavoursDynamic(t *testing.T) {
	res := AblationSwitching(perf.PaperReferenceProfile())
	if res.StaticSetBytes <= res.DynamicBytes {
		t.Fatal("static set must need more storage than one dynamic model")
	}
	if res.StaticSetModels < 2 {
		t.Fatalf("static set has %d distinct models; expected several", res.StaticSetModels)
	}
	if res.DynamicSwitch.LatencyS >= res.StaticSwitch.LatencyS {
		t.Fatal("dynamic switch must be faster than a model reload")
	}
	if res.DynamicSwitch.BytesMoved != 0 {
		t.Fatal("dynamic switch moves no bytes")
	}
}

func TestAblationNoRTM(t *testing.T) {
	res, err := AblationNoRTM(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineBad <= res.ManagedBad {
		t.Fatalf("baseline bad %.2f should exceed managed %.2f", res.BaselineBad, res.ManagedBad)
	}
	if res.ManagedBad > 0.15 {
		t.Fatalf("managed bad fraction %.2f too high", res.ManagedBad)
	}
	// The governor runs Fig 2's script as the manager does, so the
	// hot-environment step at t = 18 s drives both runs past throttle.
	if res.ManagedOverC == 0 || res.BaselineOverC == 0 {
		t.Fatalf("time above throttle: managed %gs, governor %gs; both runs heat past throttle after the ambient step",
			res.ManagedOverC, res.BaselineOverC)
	}
}

// cellFor returns the Fig 1 cell for a platform/requirement pair.
func cellFor(r Fig1Result, platform, requirement string) (Fig1Cell, bool) {
	for _, c := range r.Cells {
		if c.Platform == platform && c.Requirement == requirement {
			return c, true
		}
	}
	return Fig1Cell{}, false
}

// coverageOf returns the budget coverage of the named knob set.
func coverageOf(r AblationKnobsResult, name string) float64 {
	for _, s := range r.Sets {
		if s.Name == name {
			return s.Coverage
		}
	}
	return -1
}

// badFraction returns the miss+drop fraction for an app info.
func badFraction(a sim.AppInfo) float64 {
	if a.Released == 0 {
		return 0
	}
	return float64(a.Missed+a.Dropped) / float64(a.Released)
}

// tableRows counts a rendered table's data rows: every line but the
// title, the header and the separator.
func tableRows(tb *trace.Table) int {
	n := strings.Count(tb.String(), "\n") - 2
	if tb.Title != "" {
		n--
	}
	return n
}
