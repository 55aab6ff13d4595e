package hw

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCatalogPlatformsValidate(t *testing.T) {
	for name, p := range Catalog() {
		if err := p.Validate(); err != nil {
			t.Fatalf("platform %s invalid: %v", name, err)
		}
	}
}

func TestOdroidOPPCountsMatchPaper(t *testing.T) {
	// Fig 4(a): "under 17 and 12 different frequency levels respectively"
	// for A15 and A7.
	p := OdroidXU3()
	if n := len(p.Cluster("a15").OPPs); n != 17 {
		t.Fatalf("A15 OPP count = %d, want 17", n)
	}
	if n := len(p.Cluster("a7").OPPs); n != 12 {
		t.Fatalf("A7 OPP count = %d, want 12", n)
	}
}

func TestOPPLaddersMonotone(t *testing.T) {
	for name, p := range Catalog() {
		for _, c := range p.Clusters {
			for i := 1; i < len(c.OPPs); i++ {
				if c.OPPs[i].FreqGHz <= c.OPPs[i-1].FreqGHz {
					t.Fatalf("%s/%s: OPP freq not ascending at %d", name, c.Name, i)
				}
				if c.OPPs[i].VoltageV < c.OPPs[i-1].VoltageV-1e-9 {
					t.Fatalf("%s/%s: voltage decreases with frequency at %d", name, c.Name, i)
				}
			}
		}
	}
}

func TestOPPLookups(t *testing.T) {
	c := OdroidXU3().Cluster("a15")
	if got := c.MinOPP().FreqGHz; math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("MinOPP = %f", got)
	}
	if got := c.MaxOPP().FreqGHz; math.Abs(got-1.8) > 1e-9 {
		t.Fatalf("MaxOPP = %f", got)
	}
	if i := c.NearestOPPIndex(1.04); math.Abs(c.OPPs[i].FreqGHz-1.0) > 1e-9 {
		t.Fatalf("NearestOPPIndex(1.04) -> %f", c.OPPs[i].FreqGHz)
	}
}

// tableICase is one row of the paper's Table I.
type tableICase struct {
	platform string
	cluster  string
	fGHz     float64
	wantMs   float64
	wantMW   float64
	wantMJ   float64
}

var tableI = []tableICase{
	{"jetson-nano", "gpu", 0.614, 7.4, 1340, 9.92},
	{"jetson-nano", "gpu", 0.9216, 4.93, 2500, 12.3},
	{"jetson-nano", "a57", 0.921, 69.4, 878, 60.9},
	{"jetson-nano", "a57", 1.43, 46.9, 1490, 69.9},
	{"odroid-xu3", "a15", 0.2, 1020, 326, 320},
	{"odroid-xu3", "a15", 1.0, 204, 846, 173},
	{"odroid-xu3", "a15", 1.8, 117, 2120, 248},
	{"odroid-xu3", "a7", 0.2, 1780, 72.4, 129},
	{"odroid-xu3", "a7", 0.7, 504, 141, 71.4},
	{"odroid-xu3", "a7", 1.3, 280, 329, 92.1},
}

// TestTableICalibration verifies the fitted hardware models reproduce the
// paper's Table I within 5% on every cell (latency, power, energy).
func TestTableICalibration(t *testing.T) {
	cat := Catalog()
	for _, tc := range tableI {
		p := cat[tc.platform]
		c := p.Cluster(tc.cluster)
		opp := c.OPPs[c.NearestOPPIndex(tc.fGHz)]

		lat := c.FixedOverheadS + float64(ReferenceWorkloadMACs)/c.EffectiveRate(opp, c.Cores)
		pow := c.BusyPowerMW(opp, c.Cores, 1)
		if comp := p.Companion(c); comp != nil {
			// Table I GPU rows pair the GPU with a specific companion
			// frequency: 614 MHz GPU ↔ 921 MHz A57, 921 MHz GPU ↔ 1.43 GHz.
			compOPP := comp.OPPs[comp.NearestOPPIndex(tc.fGHz+0.4)]
			if tc.fGHz < 0.7 {
				compOPP = comp.OPPs[comp.NearestOPPIndex(0.921)]
			}
			pow += comp.BusyPowerMW(compOPP, comp.Cores, c.CompanionUtil) - comp.IdlePowerMW() + comp.IdlePowerMW()
		}
		energyMJ := pow * lat // mW × s = mJ

		checkWithin(t, tc.platform+"/"+tc.cluster+" latency", lat*1000, tc.wantMs, 0.05)
		checkWithin(t, tc.platform+"/"+tc.cluster+" power", pow, tc.wantMW, 0.05)
		checkWithin(t, tc.platform+"/"+tc.cluster+" energy", energyMJ, tc.wantMJ, 0.08)
	}
}

func checkWithin(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want)/want > tol {
		t.Fatalf("%s: got %.4g, want %.4g (±%.0f%%)", what, got, want, tol*100)
	}
}

func TestEffectiveRateScaling(t *testing.T) {
	c := OdroidXU3().Cluster("a15")
	opp := c.MaxOPP()
	full := c.EffectiveRate(opp, 4)
	one := c.EffectiveRate(opp, 1)
	if one >= full {
		t.Fatal("1 core cannot outrun 4 cores")
	}
	// Sub-linear scaling: 4 cores < 4× one core, > 2× one core.
	if full >= 4*one || full <= 2*one {
		t.Fatalf("parallel scaling implausible: full=%.3g one=%.3g", full, one)
	}
	if c.EffectiveRate(opp, 0) != 0 {
		t.Fatal("0 cores must have 0 rate")
	}
	if c.EffectiveRate(opp, 9) != full {
		t.Fatal("core count must clamp to cluster size")
	}
}

// NewPlatform builds exactly what Catalog holds under each name, and
// nothing for a name Catalog does not know.
func TestNewPlatformMatchesCatalog(t *testing.T) {
	cat := Catalog()
	if len(cat) != len(platformNames) {
		t.Fatalf("Catalog has %d platforms, want %d", len(cat), len(platformNames))
	}
	for name, want := range cat {
		if want == nil || want.Name != name {
			t.Fatalf("Catalog()[%q] = %+v, want a platform of that name", name, want)
		}
		if got := NewPlatform(name); !reflect.DeepEqual(got, want) {
			t.Errorf("NewPlatform(%q) differs from Catalog()[%q]", name, name)
		}
	}
	if p := NewPlatform("no-such-board"); p != nil {
		t.Fatalf("NewPlatform(unknown) = %v, want nil", p)
	}
}

func TestBusyPowerProperties(t *testing.T) {
	f := func(seed int64) bool {
		c := OdroidXU3().Cluster("a15")
		i := int(uint64(seed) % uint64(len(c.OPPs)))
		opp := c.OPPs[i]
		util := float64(uint64(seed)%100) / 100
		p := c.BusyPowerMW(opp, 4, util)
		// Busy power >= idle power, monotone in util.
		if p < c.IdlePowerMW() {
			return false
		}
		return c.BusyPowerMW(opp, 4, 1) >= p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: higher frequency never lowers peak power, never lowers rate —
// the DVFS monotonicity invariant.
func TestDVFSMonotonicity(t *testing.T) {
	for name, p := range Catalog() {
		for _, c := range p.Clusters {
			for i := 1; i < len(c.OPPs); i++ {
				lo, hi := c.OPPs[i-1], c.OPPs[i]
				if c.EffectiveRate(hi, c.Cores) <= c.EffectiveRate(lo, c.Cores) {
					t.Fatalf("%s/%s: rate not increasing at OPP %d", name, c.Name, i)
				}
				if c.BusyPowerMW(hi, c.Cores, 1) <= c.BusyPowerMW(lo, c.Cores, 1) {
					t.Fatalf("%s/%s: busy power not increasing at OPP %d", name, c.Name, i)
				}
			}
		}
	}
}

func TestThermalSteadyStateAndTempAfter(t *testing.T) {
	p := ThermalParams{RthKPerW: 10, CthJPerK: 2, ThrottleC: 70, CriticalC: 85}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.SteadyStateC(25, 3); got != 55 {
		t.Fatalf("steady state = %f, want 55", got)
	}
	if got := p.PowerBudgetW(25, 70); math.Abs(got-4.5) > 1e-9 {
		t.Fatalf("power budget = %f, want 4.5", got)
	}
	// Heat toward steady state: after 5τ the error must be < 1%.
	tau := p.RthKPerW * p.CthJPerK
	hot := p.TempAfterC(25, 3, 25, 5*tau)
	if math.Abs(hot-55) > 0.4 {
		t.Fatalf("after 5τ temp = %f, want ~55", hot)
	}
	// Cooling: power removed, temperature must decay toward ambient.
	if cool := p.TempAfterC(25, 0, hot, 5*tau); math.Abs(cool-25) > 0.4 {
		t.Fatalf("cooling failed: %f", cool)
	}
	if got := p.TempAfterC(25, 3, 40, 0); got != 40 {
		t.Fatalf("zero-length window moved the temperature to %f", got)
	}
}

func TestThermalTempAfterStability(t *testing.T) {
	// The closed form must be stable for any dt.
	p := ThermalParams{RthKPerW: 8, CthJPerK: 0.5, ThrottleC: 70, CriticalC: 85}
	temp := 25.0
	for i := 0; i < 100; i++ {
		temp = p.TempAfterC(25, 5, temp, 1000) // huge windows
		if math.IsNaN(temp) || temp < 25 || temp > 25+8*5+1 {
			t.Fatalf("unstable temperature %f", temp)
		}
	}
}

// TimeToC inverts TempAfterC on both heating and cooling trajectories,
// splitting a window anywhere composes exactly, and unreachable
// temperatures are reported as such.
func TestThermalTimeToInvertsTempAfter(t *testing.T) {
	p := ThermalParams{RthKPerW: 10, CthJPerK: 2, ThrottleC: 70, CriticalC: 85}
	for _, c := range []struct{ powerW, fromC, toC float64 }{
		{5, 25, 70}, // heating toward 75
		{5, 30, 74}, // heating, close to steady state
		{0, 80, 70}, // cooling toward ambient
		{2, 90, 46}, // cooling toward 45
		{5, 69.999, 70},
	} {
		dt, ok := p.TimeToC(25, c.powerW, c.fromC, c.toC)
		if !ok || dt <= 0 {
			t.Fatalf("%+v: TimeToC = %v, %v", c, dt, ok)
		}
		if got := p.TempAfterC(25, c.powerW, c.fromC, dt); math.Abs(got-c.toC) > 1e-9 {
			t.Errorf("%+v: temperature after %gs = %.12f", c, dt, got)
		}
		mid := p.TempAfterC(25, c.powerW, c.fromC, dt/3)
		if rest, ok := p.TimeToC(25, c.powerW, mid, c.toC); !ok || math.Abs(dt/3+rest-dt) > 1e-9*dt {
			t.Errorf("%+v: split window reaches %g in %g+%g, whole in %g", c, c.toC, dt/3, rest, dt)
		}
	}
	for _, c := range []struct{ powerW, fromC, toC float64 }{
		{2, 25, 70}, // steady state 45 never reaches 70
		{5, 25, 75}, // the steady state itself is only approached
		{5, 72, 70}, // heating never goes down
		{0, 60, 80}, // cooling never goes up
		{5, 70, 70}, // already there
		{5, 75, 75}, // sitting at the steady state
	} {
		if dt, ok := p.TimeToC(25, c.powerW, c.fromC, c.toC); ok {
			t.Errorf("%+v: TimeToC = %g, want unreachable", c, dt)
		}
	}
}

func TestThermalValidateRejectsBad(t *testing.T) {
	bad := []ThermalParams{
		{RthKPerW: 0, CthJPerK: 1, ThrottleC: 70, CriticalC: 85},
		{RthKPerW: 1, CthJPerK: 0, ThrottleC: 70, CriticalC: 85},
		{RthKPerW: 1, CthJPerK: 1, ThrottleC: 85, CriticalC: 70},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("thermal params %d should be rejected", i)
		}
	}
}

func TestPlatformLookupsAndValidation(t *testing.T) {
	p := FlagshipSoC()
	if p.Cluster("npu") == nil || p.Cluster("missing") != nil {
		t.Fatal("Cluster lookup broken")
	}
	npu := p.Cluster("npu")
	if comp := p.Companion(npu); comp == nil || comp.Name != "cpu-lit" {
		t.Fatal("NPU companion must be cpu-lit")
	}
	if npu.MemBytes == 0 {
		t.Fatal("NPU must expose local memory for the Fig 2(d) constraint")
	}
	if !CoreNPU.IsAccelerator() || CoreA15.IsAccelerator() {
		t.Fatal("IsAccelerator misclassifies")
	}

	// Duplicate cluster names must be rejected.
	dup := &Platform{
		Name:     "dup",
		AmbientC: 25,
		Thermal:  ThermalParams{RthKPerW: 1, CthJPerK: 1, ThrottleC: 70, CriticalC: 85},
		Clusters: []*Cluster{
			{Name: "x", Type: CoreA7, Cores: 1, OPPs: []OPP{{1, 1}}, RateMACsPerSecGHz: 1, ParallelAlpha: 1},
			{Name: "x", Type: CoreA7, Cores: 1, OPPs: []OPP{{1, 1}}, RateMACsPerSecGHz: 1, ParallelAlpha: 1},
		},
	}
	if dup.Validate() == nil {
		t.Fatal("duplicate cluster names must be rejected")
	}
	// Unknown companion must be rejected.
	badComp := &Platform{
		Name:     "badcomp",
		AmbientC: 25,
		Thermal:  ThermalParams{RthKPerW: 1, CthJPerK: 1, ThrottleC: 70, CriticalC: 85},
		Clusters: []*Cluster{
			{Name: "g", Type: CoreGPU, Cores: 1, OPPs: []OPP{{1, 1}}, RateMACsPerSecGHz: 1, ParallelAlpha: 1, CompanionName: "nope"},
		},
	}
	if badComp.Validate() == nil {
		t.Fatal("unknown companion must be rejected")
	}
}

func TestCapabilityOrderingForScenario(t *testing.T) {
	// Fig 2 depends on NPU ≫ GPU ≫ big CPU ≫ LITTLE CPU at max OPPs.
	p := FlagshipSoC()
	rate := func(name string) float64 {
		c := p.Cluster(name)
		return c.EffectiveRate(c.MaxOPP(), c.Cores)
	}
	if !(rate("npu") > rate("gpu") && rate("gpu") > rate("cpu-big") && rate("cpu-big") > rate("cpu-lit")) {
		t.Fatalf("capability ordering broken: npu=%.3g gpu=%.3g big=%.3g lit=%.3g",
			rate("npu"), rate("gpu"), rate("cpu-big"), rate("cpu-lit"))
	}
}

// TestCostModelCacheIdentities pins, bit for bit on every catalog cluster
// and OPP, the identities that let the simulator cache the cost model per
// OPP instead of evaluating it per derive: every core delivers the whole
// OPP rate (CoreScale(Cores) is exactly 1, so EffectiveRate on every core
// is OPPRate), and busy power with every core active is the OPP's dynamic
// power times the utilisation plus static power.
func TestCostModelCacheIdentities(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	utils := []float64{0, 1e-9, 0.1, 1.0 / 3, 0.5, 0.6 + 0.4/3, 0.999999, 1}
	for name, p := range Catalog() {
		for _, c := range p.Clusters {
			if got := c.CoreScale(c.Cores); got != 1 {
				t.Fatalf("%s/%s: CoreScale(%d) = %v, want 1", name, c.Name, c.Cores, got)
			}
			for oi, opp := range c.OPPs {
				if got, want := c.EffectiveRate(opp, c.Cores), c.OPPRate(opp); !same(got, want) {
					t.Fatalf("%s/%s opp %d: EffectiveRate on every core %v, OPPRate %v", name, c.Name, oi, got, want)
				}
				for _, u := range utils {
					got, want := c.BusyPowerMW(opp, c.Cores, u), c.DynamicPowerMW(opp)*u+c.Power.StaticMW
					if !same(got, want) {
						t.Fatalf("%s/%s opp %d, util %v: BusyPowerMW %v, dynamic×util+static %v", name, c.Name, oi, u, got, want)
					}
				}
			}
		}
	}
}
