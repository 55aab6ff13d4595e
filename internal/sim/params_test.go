package sim

import (
	"encoding/binary"
	"math"
	"reflect"
	"strconv"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// badClusterParams are model parameters hw.Cluster.Validate must refuse,
// each written into odroid-xu3's a15. Every NaN or infinite one would
// otherwise reach the engine: a NaN voltage or power coefficient makes
// the report's energy and temperature NaN, and a NaN rate or overhead
// silently completes no frame.
var badClusterParams = []struct {
	name string
	set  func(c *hw.Cluster)
}{
	{"NaN voltage", func(c *hw.Cluster) { c.OPPs[0].VoltageV = math.NaN() }},
	{"NaN ceff", func(c *hw.Cluster) { c.Power.CeffMWPerV2GHz = math.NaN() }},
	{"NaN rate", func(c *hw.Cluster) { c.RateMACsPerSecGHz = math.NaN() }},
	{"NaN overhead", func(c *hw.Cluster) { c.FixedOverheadS = math.NaN() }},
	{"negative overhead", func(c *hw.Cluster) { c.FixedOverheadS = -1 }},
	{"NaN alpha", func(c *hw.Cluster) { c.ParallelAlpha = math.NaN() }},
	{"infinite top frequency", func(c *hw.Cluster) { c.OPPs[len(c.OPPs)-1].FreqGHz = math.Inf(1) }},
	{"NaN frequency", func(c *hw.Cluster) { c.OPPs[1].FreqGHz = math.NaN() }},
	{"infinite rate", func(c *hw.Cluster) { c.RateMACsPerSecGHz = math.Inf(1) }},
	{"infinite static power", func(c *hw.Cluster) { c.Power.StaticMW = math.Inf(1) }},
	{"negative ceff", func(c *hw.Cluster) { c.Power.CeffMWPerV2GHz = -1 }},
	{"negative static power", func(c *hw.Cluster) { c.Power.StaticMW = -1 }},
	{"negative memory", func(c *hw.Cluster) { c.MemBytes = -1 }},
	{"NaN companion utilisation", func(c *hw.Cluster) { c.CompanionUtil = math.NaN() }},
	{"negative companion utilisation", func(c *hw.Cluster) { c.CompanionUtil = -0.1 }},
	{"companion utilisation above 1", func(c *hw.Cluster) { c.CompanionUtil = 1.5 }},
}

// TestClusterValidateRefusesBadParams checks each bad parameter through
// hw.Cluster.Validate and through New, which must refuse the platform
// before it simulates anything.
func TestClusterValidateRefusesBadParams(t *testing.T) {
	for _, tc := range badClusterParams {
		plat := hw.OdroidXU3()
		c := plat.Cluster("a15")
		tc.set(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		if _, err := New(Config{Platform: plat, Apps: []App{dnnApp("d", "a15", 4, 4, 0.1)}}); err == nil {
			t.Errorf("%s: New accepted it", tc.name)
		}
	}
}

// fuzzClusters lists every catalog cluster as (platform, cluster), in a
// fixed order, for FuzzClusterParams to pick from.
func fuzzClusters() [][2]string {
	var out [][2]string
	for _, name := range []string{"odroid-xu3", "jetson-nano", "flagship-soc"} {
		for _, c := range hw.NewPlatform(name).Clusters {
			out = append(out, [2]string{name, c.Name})
		}
	}
	return out
}

// oppBytes encodes OPPs as FuzzClusterParams reads them: frequency then
// voltage, each a little-endian float64.
func oppBytes(opps []hw.OPP) []byte {
	var b []byte
	for _, o := range opps {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.FreqGHz))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.VoltageV))
	}
	return b
}

// FuzzClusterParams writes arbitrary model parameters and OPPs into one
// catalog cluster and runs a DNN on every cluster of its platform for
// 2 s, moving the fuzzed cluster to its top OPP halfway. Either New
// refuses the platform, or the run returns and every float in the report
// is finite. OPPs are read 16 bytes at a time (frequency, voltage); fewer
// than 16 keep the catalog's.
func FuzzClusterParams(f *testing.F) {
	a15 := hw.OdroidXU3().Cluster("a15")
	add := func(which uint8, c *hw.Cluster) {
		f.Add(which, c.RateMACsPerSecGHz, c.ParallelAlpha, c.FixedOverheadS, c.CompanionUtil,
			c.Power.CeffMWPerV2GHz, c.Power.StaticMW, c.MemBytes, oppBytes(c.OPPs))
	}
	for i, pc := range fuzzClusters() {
		add(uint8(i), hw.NewPlatform(pc[0]).Cluster(pc[1]))
	}
	for _, tc := range badClusterParams {
		c := *a15
		c.OPPs = append([]hw.OPP(nil), a15.OPPs...)
		tc.set(&c)
		add(0, &c)
	}
	clusters := fuzzClusters()
	f.Fuzz(func(t *testing.T, which uint8, rate, alpha, overhead, companion, ceff, static float64, mem int64, opps []byte) {
		pc := clusters[int(which)%len(clusters)]
		plat := hw.NewPlatform(pc[0])
		c := plat.Cluster(pc[1])
		c.RateMACsPerSecGHz, c.ParallelAlpha, c.FixedOverheadS, c.CompanionUtil = rate, alpha, overhead, companion
		c.Power = hw.PowerParams{CeffMWPerV2GHz: ceff, StaticMW: static}
		c.MemBytes = mem
		if len(opps) >= 16 {
			c.OPPs = c.OPPs[:0]
			for ; len(opps) >= 16; opps = opps[16:] {
				c.OPPs = append(c.OPPs, hw.OPP{
					FreqGHz:  math.Float64frombits(binary.LittleEndian.Uint64(opps)),
					VoltageV: math.Float64frombits(binary.LittleEndian.Uint64(opps[8:])),
				})
			}
		}
		var apps []App
		for _, cl := range plat.Clusters {
			apps = append(apps, dnnApp("d-"+cl.Name, cl.Name, cl.Cores, 4, 0.1))
		}
		e, err := New(Config{Platform: plat, Apps: apps})
		if err != nil {
			return
		}
		if err := e.Run(1); err != nil {
			t.Fatal(err)
		}
		if err := e.SetOPP(c.Name, len(c.OPPs)-1); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(2); err != nil {
			t.Fatal(err)
		}
		if path := nonFinite(reflect.ValueOf(e.Report()), "Report"); path != "" {
			t.Fatalf("%s/%s %+v: %s is not finite", pc[0], pc[1], *c, path)
		}
	})
}

// nonFinite returns the path of the first NaN or infinite float in v,
// walking structs and slices, or "" when there is none.
func nonFinite(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Float64:
		if !finite(v.Float()) {
			return path
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if p := nonFinite(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Slice:
		for i := range v.Len() {
			if p := nonFinite(v.Index(i), path+"["+strconv.Itoa(i)+"]"); p != "" {
				return p
			}
		}
	}
	return ""
}
