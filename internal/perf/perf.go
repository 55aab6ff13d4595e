// Package perf computes inference latency, power and energy for a DNN
// workload placed on a hardware cluster, and enumerates the operating-point
// space (model level × cluster × core count × DVFS level) that Fig 4(a) of
// the paper plots and that the runtime manager searches.
package perf

import (
	"fmt"
	"math"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// LevelSpec describes one dynamic-DNN configuration as the perf model sees
// it: its compute cost and its platform-independent metrics.
type LevelSpec struct {
	Level      int
	Name       string // "25%", "50%", ...
	MACs       int64
	Accuracy   float64 // top-1 in [0,1]
	Confidence float64 // mean top-1 softmax probability
	MemBytes   int64
}

// ModelProfile is the per-level characterisation of a dynamic DNN (or, for
// baselines, a set of independent static models presented uniformly).
type ModelProfile struct {
	Name   string
	Levels []LevelSpec // ascending level
}

// Validate reports structural errors.
func (p ModelProfile) Validate() error {
	if len(p.Levels) == 0 {
		return fmt.Errorf("perf: profile %q has no levels", p.Name)
	}
	for i, l := range p.Levels {
		if l.MACs <= 0 {
			return fmt.Errorf("perf: profile %q level %d has MACs %d", p.Name, i, l.MACs)
		}
		if i > 0 && l.MACs <= p.Levels[i-1].MACs {
			return fmt.Errorf("perf: profile %q MACs not increasing at level %d", p.Name, i)
		}
		if l.Accuracy < 0 || l.Accuracy > 1 {
			return fmt.Errorf("perf: profile %q level %d accuracy %f", p.Name, i, l.Accuracy)
		}
	}
	return nil
}

// Level returns the spec for a 1-based level index.
func (p ModelProfile) Level(level int) LevelSpec {
	for _, l := range p.Levels {
		if l.Level == level {
			return l
		}
	}
	panic(fmt.Sprintf("perf: profile %q has no level %d", p.Name, level))
}

// MaxLevel returns the largest level index.
func (p ModelProfile) MaxLevel() int { return p.Levels[len(p.Levels)-1].Level }

// InferenceLatencyS returns the latency of one inference of `macs` MACs on
// n cores of cluster c at the given OPP.
func InferenceLatencyS(c *hw.Cluster, opp hw.OPP, n int, macs int64) float64 {
	rate := c.EffectiveRate(opp, n)
	if rate <= 0 {
		return math.Inf(1)
	}
	return c.FixedOverheadS + float64(macs)/rate
}

// InferencePowerMW returns the platform power attributable to an inference
// running continuously on n cores of cluster c at the given OPP: the
// cluster's busy power plus the induced companion-CPU power (accelerators
// need a host core for pre-processing).
//
// companionOPP selects the companion's operating point; pass a negative
// index to use the companion's lowest OPP.
func InferencePowerMW(p *hw.Platform, c *hw.Cluster, opp hw.OPP, n int, companionOPPIdx int) float64 {
	pw := c.BusyPowerMW(opp, n, 1)
	if comp := p.Companion(c); comp != nil && c.CompanionUtil > 0 {
		idx := companionOPPIdx
		if idx < 0 || idx >= len(comp.OPPs) {
			idx = 0
		}
		pw += comp.BusyPowerMW(comp.OPPs[idx], comp.Cores, c.CompanionUtil)
	}
	return pw
}

// InferenceEnergyMJ returns energy per inference in millijoules (busy
// power × latency, matching the paper's per-inference mJ accounting).
func InferenceEnergyMJ(latencyS, powerMW float64) float64 { return powerMW * latencyS }

// OperatingPoint is one selectable configuration in the E/P/t/accuracy
// space of Section V: a (model level, cluster, cores, DVFS level) tuple
// with its predicted metrics.
type OperatingPoint struct {
	Platform  string
	Cluster   string
	CoreType  hw.CoreType
	OPPIndex  int
	FreqGHz   float64
	Cores     int
	Level     int
	LevelName string

	LatencyS   float64
	PowerMW    float64
	EnergyMJ   float64
	Accuracy   float64
	Confidence float64
	MemBytes   int64
}

// String renders a point compactly for logs and reports.
func (o OperatingPoint) String() string {
	return fmt.Sprintf("%s/%s %dcore @%.1fGHz %s: t=%.1fms P=%.0fmW E=%.1fmJ acc=%.1f%%",
		o.Platform, o.Cluster, o.Cores, o.FreqGHz, o.LevelName,
		o.LatencyS*1000, o.PowerMW, o.EnergyMJ, 100*o.Accuracy)
}

// EnumerateOptions controls operating-point enumeration.
type EnumerateOptions struct {
	// Clusters restricts enumeration to the named clusters (nil = all).
	Clusters []string
	// SweepCores enumerates every core count 1..Cores for CPU clusters
	// (the task-mapping knob at sub-cluster granularity). When false, only
	// the full cluster is used — Fig 4(a)'s setting.
	SweepCores bool
	// Levels restricts the model levels (nil = all).
	Levels []int
}

// Enumerate builds the operating-point space of a model profile on a
// platform. Points are ordered deterministically: cluster (platform
// order), then level, then core count, then OPP index.
func Enumerate(p *hw.Platform, prof ModelProfile, opt EnumerateOptions) []OperatingPoint {
	allowCluster := func(name string) bool {
		if len(opt.Clusters) == 0 {
			return true
		}
		for _, n := range opt.Clusters {
			if n == name {
				return true
			}
		}
		return false
	}
	allowLevel := func(l int) bool {
		if len(opt.Levels) == 0 {
			return true
		}
		for _, v := range opt.Levels {
			if v == l {
				return true
			}
		}
		return false
	}

	var out []OperatingPoint
	for _, c := range p.Clusters {
		if !allowCluster(c.Name) {
			continue
		}
		coreCounts := []int{c.Cores}
		if opt.SweepCores && !c.Type.IsAccelerator() {
			coreCounts = coreCounts[:0]
			for n := 1; n <= c.Cores; n++ {
				coreCounts = append(coreCounts, n)
			}
		}
		for _, spec := range prof.Levels {
			if !allowLevel(spec.Level) {
				continue
			}
			for _, n := range coreCounts {
				for oi, opp := range c.OPPs {
					lat := InferenceLatencyS(c, opp, n, spec.MACs)
					pw := InferencePowerMW(p, c, opp, n, -1)
					out = append(out, OperatingPoint{
						Platform:   p.Name,
						Cluster:    c.Name,
						CoreType:   c.Type,
						OPPIndex:   oi,
						FreqGHz:    opp.FreqGHz,
						Cores:      n,
						Level:      spec.Level,
						LevelName:  spec.Name,
						LatencyS:   lat,
						PowerMW:    pw,
						EnergyMJ:   InferenceEnergyMJ(lat, pw),
						Accuracy:   spec.Accuracy,
						Confidence: spec.Confidence,
						MemBytes:   spec.MemBytes,
					})
				}
			}
		}
	}
	return out
}

// UniformProfile builds a profile whose level k costs k/maxLevel of
// fullMACs, with the supplied accuracies — the shape of the paper's
// group-pruned dynamic DNN. Accuracy slice length sets the level count.
func UniformProfile(name string, fullMACs int64, fullMemBytes int64, accuracies, confidences []float64) ModelProfile {
	g := len(accuracies)
	prof := ModelProfile{Name: name}
	for k := 1; k <= g; k++ {
		conf := 0.0
		if len(confidences) == g {
			conf = confidences[k-1]
		}
		prof.Levels = append(prof.Levels, LevelSpec{
			Level:      k,
			Name:       fmt.Sprintf("%d%%", 100*k/g),
			MACs:       fullMACs * int64(k) / int64(g),
			Accuracy:   accuracies[k-1],
			Confidence: conf,
			MemBytes:   fullMemBytes * int64(k) / int64(g),
		})
	}
	return prof
}

// PaperAccuracies are the Fig 4(b) top-1 accuracies of the paper's
// 25/50/75/100% models on CIFAR-10, used when an experiment needs the
// published values rather than retraining.
var PaperAccuracies = []float64{0.560, 0.627, 0.688, 0.712}

// MobileProfile is a mobile-vision-class dynamic DNN: 7 MMACs and 7 MiB of
// parameters at the 100% configuration, with the paper's Fig 4(b)
// accuracies. It is deliberately heavier than the Table I calibration
// workload so that the flagship SoC's GPU and CPU clusters — not just the
// NPU — face real trade-offs, which is the premise of Fig 2.
func MobileProfile() ModelProfile {
	return UniformProfile("dnn-mobile", 7_000_000, 7<<20,
		PaperAccuracies, []float64{0.61, 0.68, 0.74, 0.78})
}

// PaperReferenceProfile is the profile of the paper's dynamic DNN with
// published accuracies and the calibration workload of Table I.
func PaperReferenceProfile() ModelProfile {
	return UniformProfile("dyndnn-paper", hw.ReferenceWorkloadMACs, 350<<10,
		PaperAccuracies, []float64{0.61, 0.68, 0.74, 0.78})
}
