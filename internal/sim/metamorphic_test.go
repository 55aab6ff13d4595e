package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// reportDiff lists the fields where two reports differ: every scalar must
// be equal with ==, and slices equal in length and element by element.
func reportDiff(a, b Report) []string {
	var out []string
	var walk func(path string, x, y reflect.Value)
	walk = func(path string, x, y reflect.Value) {
		switch x.Kind() {
		case reflect.Struct:
			for i := range x.NumField() {
				if x.Type().Field(i).IsExported() {
					walk(path+"."+x.Type().Field(i).Name, x.Field(i), y.Field(i))
				}
			}
		case reflect.Slice:
			if x.Len() != y.Len() {
				out = append(out, fmt.Sprintf("%s: %d elements vs %d", path, x.Len(), y.Len()))
				return
			}
			for i := range x.Len() {
				walk(fmt.Sprintf("%s[%d]", path, i), x.Index(i), y.Index(i))
			}
		case reflect.Float64:
			if p, q := x.Float(), y.Float(); p != q {
				out = append(out, fmt.Sprintf("%s: %.17g vs %.17g", path, p, q))
			}
		default:
			if !x.Equal(y) {
				out = append(out, fmt.Sprintf("%s: %v vs %v", path, x, y))
			}
		}
	}
	walk("Report", reflect.ValueOf(a), reflect.ValueOf(b))
	return out
}

// boundaryCtrl changes nothing a report can see, apart from what inner
// does. Ticking it only inserts event-loop boundaries; with rearm set, each
// tick also cancels every armed app timer and marks every app for
// refresh, so the refresh after the tick arms them afresh from the state
// at the tick. (The thermal step boundaries are a fixed grid: there is
// nothing to re-derive.) When
// inner is set, every every-th tick and every event reach it as well.
type boundaryCtrl struct {
	rearm bool
	inner Controller
	every int
	ticks int
}

func (c *boundaryCtrl) OnTick(e *Engine) {
	if c.ticks++; c.inner != nil && c.ticks%c.every == 0 {
		c.inner.OnTick(e)
	}
	if !c.rearm {
		return
	}
	for _, a := range e.appList {
		a.completionSeq = 0
		e.dirty |= 1 << a.idx
	}
}

func (c *boundaryCtrl) OnEvent(e *Engine, ev Event) {
	if c.inner != nil {
		c.inner.OnEvent(e, ev)
	}
}

// benchReport runs BenchApps on plat for endS seconds and reports.
func benchReport(t *testing.T, plat *hw.Platform, ctrl Controller, tickS, endS float64) Report {
	t.Helper()
	e := mustEngine(t, Config{Platform: plat, Apps: BenchApps(), Controller: ctrl, TickS: tickS, LogEvents: true})
	if err := e.Run(endS); err != nil {
		t.Fatal(err)
	}
	return e.Report()
}

// noOpVariants are the ways a run is split at points where nothing
// happens: a tick every 1/1024 s (a binary fraction, so tick times are
// exact), alone or re-arming every timer at each tick.
func noOpVariants(inner func() Controller, every int) map[string]*boundaryCtrl {
	return map[string]*boundaryCtrl{
		"1ms ticks":                       {inner: inner(), every: every},
		"1ms ticks re-arming every timer": {rearm: true, inner: inner(), every: every},
	}
}

// TestNoOpBoundariesLeaveReportUnchanged is the metamorphic property behind
// integrals held per constant-rate segment and timers held in place:
// splitting the run at points where nothing happens — controller ticks
// every millisecond that do nothing, and re-deriving every pending timer
// at each of them — must leave every report field exactly equal. A
// per-segment approximation (such as testing each segment's midpoint
// temperature, or summing energy per event) moves with the segment
// boundaries and fails this.
func TestNoOpBoundariesLeaveReportUnchanged(t *testing.T) {
	// At 58 °C ambient the BenchApps load crosses the 65 °C throttle point
	// part-way through; at 78 °C it starts above throttle and crosses the
	// 85 °C critical point.
	for _, ambientC := range []float64{58, 78} {
		t.Run(fmt.Sprintf("ambient%.0f", ambientC), func(t *testing.T) {
			plat := hw.FlagshipSoC()
			plat.AmbientC = ambientC
			base := benchReport(t, plat, nil, 0, 20)
			crosses := func(aboveS float64) bool { return aboveS > 0 && aboveS < base.DurationS }
			if base.OverThrottleS <= 0 || !crosses(base.OverThrottleS) && base.MaxTempC <= plat.Thermal.CriticalC {
				t.Fatalf("base run spends %gs above throttle in %gs and peaks at %g°C; the property needs a crossing",
					base.OverThrottleS, base.DurationS, base.MaxTempC)
			}
			for name, ctrl := range noOpVariants(func() Controller { return nil }, 1) {
				if diff := reportDiff(base, benchReport(t, plat, ctrl, 1.0/1024, 20)); len(diff) > 0 {
					t.Errorf("%s moved %d report fields, first: %s", name, len(diff), diff[0])
				}
			}
		})
	}
	// The stress controller changes rates every way the engine knows —
	// ambient swings, DVFS, a cluster fault with unhosted service, and
	// migrations with downtime — at ticks every 1/8 s. The split runs tick
	// 128 times as often and pass every 128th tick on, so the stress lands
	// at the same instants.
	t.Run("stress", func(t *testing.T) {
		stress := func() Controller { return &stressCtrl{} }
		base := benchReport(t, hw.FlagshipSoC(), stress(), 1.0/8, 20)
		if base.UnhostedS <= 0 || base.Migrations == 0 || base.ClusterFails == 0 || base.OPPSwitches == 0 {
			t.Fatalf("stress run too tame: %gs unhosted, %d migrations, %d faults, %d OPP switches",
				base.UnhostedS, base.Migrations, base.ClusterFails, base.OPPSwitches)
		}
		for name, ctrl := range noOpVariants(stress, 128) {
			if diff := reportDiff(base, benchReport(t, hw.FlagshipSoC(), ctrl, 1.0/1024, 20)); len(diff) > 0 {
				t.Errorf("%s moved %d report fields, first: %s", name, len(diff), diff[0])
			}
		}
	})
}

// FuzzNoOpBoundaries is the no-op-boundary property over arbitrary tick
// periods and ambients: a BenchApps run split by ticks that do nothing, or
// that re-arm every timer, reports exactly what the unticked run does. The
// inputs map onto a tick period in [1 ms, 1.001 s] and an ambient in
// [0, 109] °C, so every input runs.
func FuzzNoOpBoundaries(f *testing.F) {
	f.Add(uint32(0), uint16(58*600), false)
	f.Add(uint32(1<<27), uint16(78*600), true)
	f.Add(uint32(math.MaxUint32), uint16(25*600), true)
	f.Fuzz(func(t *testing.T, tick uint32, ambient uint16, rearm bool) {
		tickS := 1e-3 + float64(tick)/math.MaxUint32
		plat := hw.FlagshipSoC()
		plat.AmbientC = float64(ambient) / 600
		base := benchReport(t, plat, nil, 0, 5)
		if diff := reportDiff(base, benchReport(t, plat, &boundaryCtrl{rearm: rearm}, tickS, 5)); len(diff) > 0 {
			t.Errorf("ticks every %.17gs (re-arming %v) at %.17g °C moved %d report fields, first: %s",
				tickS, rearm, plat.AmbientC, len(diff), diff[0])
		}
	})
}
