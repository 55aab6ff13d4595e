package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// reportDiff lists the fields where two reports differ: integers, strings
// and bools must be equal, floats equal within rel relative, slices equal
// in length and element by element.
func reportDiff(a, b Report, rel float64) []string {
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
			p, q := x.Float(), y.Float()
			if p != q && math.Abs(p-q) > rel*math.Max(math.Abs(p), math.Abs(q)) {
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

// boundaryCtrl changes nothing a report can see. Ticking it only inserts
// event-loop boundaries; with rearm set, each tick also cancels every armed
// completion timer and the throttle alarm and asks for the alarm to be
// re-derived, so the refresh after the tick arms them afresh from the
// state at the tick. An alarm due within a millisecond is left armed:
// rescheduleThermal floors a re-derived alarm's delay at 1 ms (its guard
// against zero-advance alarm cascades), so re-deriving it would move it.
type boundaryCtrl struct{ rearm bool }

func (c *boundaryCtrl) OnTick(e *Engine) {
	if !c.rearm {
		return
	}
	for _, a := range e.appList {
		if a.completionKind == hComplete {
			a.completionSeq = 0
		}
	}
	if e.thermalEst-e.now >= 1e-3 {
		e.thermalEvSeq = 0
	}
	e.thermalDirty = true
}

func (c *boundaryCtrl) OnEvent(e *Engine, ev Event) {}

// TestNoOpBoundariesLeaveReportUnchanged is the metamorphic property behind
// thermal windows and timers held in place: splitting the run at points
// where nothing happens — controller ticks every millisecond that do
// nothing, and re-deriving every pending completion and alarm at each of
// them — must leave every report field equal within 1e-9 relative. A
// per-segment approximation of the time above a trip point (such as testing
// each segment's midpoint temperature) moves with the segment boundaries
// and fails this.
func TestNoOpBoundariesLeaveReportUnchanged(t *testing.T) {
	// At 58 °C ambient the BenchApps load crosses the 65 °C throttle point
	// part-way through; at 78 °C it starts above throttle and crosses the
	// 85 °C critical point.
	for _, ambientC := range []float64{58, 78} {
		t.Run(fmt.Sprintf("ambient%.0f", ambientC), func(t *testing.T) {
			plat := hw.FlagshipSoC()
			plat.AmbientC = ambientC
			run := func(ctrl Controller, tickS float64) Report {
				t.Helper()
				e := mustEngine(t, Config{Platform: plat, Apps: BenchApps(), Controller: ctrl, TickS: tickS, LogEvents: true})
				if err := e.Run(20); err != nil {
					t.Fatal(err)
				}
				return e.Report()
			}
			base := run(nil, 0)
			crosses := func(aboveS float64) bool { return aboveS > 0 && aboveS < base.DurationS }
			if base.OverThrottleS <= 0 || !crosses(base.OverThrottleS) && !crosses(base.OverCriticalS) {
				t.Fatalf("base run spends %gs above throttle and %gs above critical in %gs; the property needs a crossing",
					base.OverThrottleS, base.OverCriticalS, base.DurationS)
			}
			for _, v := range []struct {
				name string
				ctrl *boundaryCtrl
			}{
				{"1ms ticks", &boundaryCtrl{}},
				{"1ms ticks re-arming every timer", &boundaryCtrl{rearm: true}},
			} {
				if diff := reportDiff(base, run(v.ctrl, 1e-3), 1e-9); len(diff) > 0 {
					t.Errorf("%s moved %d report fields, first: %s", v.name, len(diff), diff[0])
				}
			}
		})
	}
}
