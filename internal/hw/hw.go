// Package hw models the heterogeneous embedded platforms the paper
// evaluates on: multi-core CPU clusters with per-cluster DVFS, GPUs and
// NPUs, cluster power models, and a lumped RC thermal model.
//
// The paper's experiments ran on physical boards (Odroid XU3, Jetson Nano)
// with power sensors. This package substitutes analytic models whose
// constants are least-squares fitted to the paper's own Table I
// measurements (see catalog.go for the fits), so every downstream
// experiment exercises the same decision logic against the same numbers
// the paper reports.
package hw

import (
	"fmt"
	"math"
)

// CoreType identifies the kind of computing resource a cluster provides.
type CoreType string

// Core types appearing in the paper's platforms (Fig 1, Fig 2, Table I).
const (
	CoreA7  CoreType = "A7"  // Arm Cortex-A7 LITTLE CPU
	CoreA15 CoreType = "A15" // Arm Cortex-A15 big CPU
	CoreA57 CoreType = "A57" // Arm Cortex-A57 CPU (Jetson Nano)
	CoreBig CoreType = "BIG" // generic big CPU (flagship SoC)
	CoreLit CoreType = "LIT" // generic LITTLE CPU (flagship SoC)
	CoreGPU CoreType = "GPU"
	CoreNPU CoreType = "NPU"
	CoreDSP CoreType = "DSP"
)

// IsAccelerator reports whether the core type is a non-CPU accelerator.
func (t CoreType) IsAccelerator() bool {
	switch t {
	case CoreGPU, CoreNPU, CoreDSP:
		return true
	}
	return false
}

// OPP is one operating performance point of a voltage/frequency domain.
type OPP struct {
	FreqGHz  float64
	VoltageV float64
}

// PowerParams parametrise the cluster power model
//
//	P_busy = Ceff·V²·f·(activeCores/Cores)·util + Static
//	P_idle = Static
//
// with P in mW, V in volts, f in GHz. Ceff and Static are fitted to
// Table I of the paper (catalog.go documents each fit).
type PowerParams struct {
	CeffMWPerV2GHz float64
	StaticMW       float64
}

// Cluster is one voltage/frequency domain containing homogeneous cores
// (or one accelerator). All cores in a cluster share the OPP — the paper's
// observation that a core may be "available at a lower voltage/frequency
// due to other computing cores executing in the same voltage/frequency
// domain" falls out of this structure.
type Cluster struct {
	Name  string
	Type  CoreType
	Cores int
	OPPs  []OPP // ascending frequency
	Power PowerParams

	// RateMACsPerSecGHz is the effective multiply-accumulate throughput of
	// the whole cluster per GHz of clock, fitted from Table I latencies.
	RateMACsPerSecGHz float64
	// ParallelAlpha is the core-scaling exponent: allocating n of Cores
	// cores yields (n/Cores)^ParallelAlpha of the cluster rate.
	ParallelAlpha float64
	// FixedOverheadS is per-inference fixed time (pre/post-processing).
	FixedOverheadS float64
	// CompanionUtil is the utilisation an inference on this cluster
	// induces on a paired CPU cluster (accelerators need a host CPU for
	// pre-processing — the Jetson "GPU + A57" rows of Table I).
	CompanionUtil float64
	// CompanionName names the paired CPU cluster ("" = none).
	CompanionName string
	// MemBytes is accelerator-local memory (NPU SRAM); 0 means the
	// cluster uses shared DRAM with no co-location capacity constraint.
	MemBytes int64
}

// Ceilings on what one cluster may draw and deliver at any OPP. They sit
// many orders of magnitude above any embedded cluster, and keep every
// energy, temperature and job-progress product a simulation forms far
// from overflowing to infinity.
const (
	maxClusterPowerMW = 1e9  // a megawatt
	maxClusterRate    = 1e18 // MAC/s
)

// Validate reports errors in the cluster description: structural ones,
// and model parameters the cost model cannot price. Every parameter must
// be finite, since a NaN or infinite one would carry into every latency,
// energy and temperature; the checks below are written so that NaN fails
// them, and the ceilings refuse what the range checks let through. The
// rate must be positive, the core-scaling exponent in (0,1], the fixed
// overhead, power coefficients and memory not negative and the companion
// utilisation in [0,1]; the OPPs must ascend strictly in frequency, each
// at a positive voltage, and draw a busy power and deliver a rate within
// the ceilings above.
func (c *Cluster) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("hw: cluster with empty name")
	case c.Cores < 1:
		return fmt.Errorf("hw: cluster %s has %d cores", c.Name, c.Cores)
	case len(c.OPPs) == 0:
		return fmt.Errorf("hw: cluster %s has no OPPs", c.Name)
	case !(c.RateMACsPerSecGHz > 0):
		return fmt.Errorf("hw: cluster %s has non-positive rate %f", c.Name, c.RateMACsPerSecGHz)
	case !(c.ParallelAlpha > 0 && c.ParallelAlpha <= 1):
		return fmt.Errorf("hw: cluster %s parallel alpha %f outside (0,1]", c.Name, c.ParallelAlpha)
	case !finite(c.FixedOverheadS) || c.FixedOverheadS < 0 || c.Power.CeffMWPerV2GHz < 0 || c.Power.StaticMW < 0 || c.MemBytes < 0:
		return fmt.Errorf("hw: cluster %s has a non-finite or negative overhead %f, or a negative ceff %f, static power %f or memory %d",
			c.Name, c.FixedOverheadS, c.Power.CeffMWPerV2GHz, c.Power.StaticMW, c.MemBytes)
	case !(c.CompanionUtil >= 0 && c.CompanionUtil <= 1):
		return fmt.Errorf("hw: cluster %s companion utilisation %f outside [0,1]", c.Name, c.CompanionUtil)
	}
	prev := 0.0
	for i, o := range c.OPPs {
		if o.FreqGHz <= prev {
			return fmt.Errorf("hw: cluster %s OPP %d not ascending", c.Name, i)
		}
		if o.VoltageV <= 0 {
			return fmt.Errorf("hw: cluster %s OPP %d voltage %f", c.Name, i, o.VoltageV)
		}
		if p, r := c.DynamicPowerMW(o)+c.Power.StaticMW, c.OPPRate(o); !(p <= maxClusterPowerMW && r <= maxClusterRate) {
			return fmt.Errorf("hw: cluster %s OPP %d (%f GHz, %f V) draws %g mW at %g MAC/s, not within %g mW and %g MAC/s",
				c.Name, i, o.FreqGHz, o.VoltageV, p, r, maxClusterPowerMW, maxClusterRate)
		}
		prev = o.FreqGHz
	}
	return nil
}

// MinOPP returns the lowest-frequency operating point.
func (c *Cluster) MinOPP() OPP { return c.OPPs[0] }

// MaxOPP returns the highest-frequency operating point.
func (c *Cluster) MaxOPP() OPP { return c.OPPs[len(c.OPPs)-1] }

// NearestOPPIndex returns the index of the OPP closest in frequency to f.
func (c *Cluster) NearestOPPIndex(fGHz float64) int {
	best, bestD := 0, math.Inf(1)
	for i, o := range c.OPPs {
		d := math.Abs(o.FreqGHz - fGHz)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// CoreScale returns the fraction of the cluster rate n cores deliver,
// (n/Cores)^ParallelAlpha, with n clamped to Cores; fewer than one core
// delivers nothing. Every core delivers all of it: CoreScale(Cores) is
// math.Pow(1, α), exactly 1.
func (c *Cluster) CoreScale(n int) float64 {
	if n < 1 {
		return 0
	}
	return math.Pow(float64(min(n, c.Cores))/float64(c.Cores), c.ParallelAlpha)
}

// OPPRate returns the MAC/s throughput of the whole cluster at the given
// OPP, RateMACsPerSecGHz·f.
func (c *Cluster) OPPRate(opp OPP) float64 { return c.RateMACsPerSecGHz * opp.FreqGHz }

// EffectiveRate returns the MAC/s throughput when n of the cluster's cores
// run at the given OPP. Accelerators always use n == Cores.
func (c *Cluster) EffectiveRate(opp OPP, n int) float64 {
	return c.OPPRate(opp) * c.CoreScale(n)
}

// LatencyAtRate returns the latency of one inference of macs MACs run at
// rate MAC/s: FixedOverheadS + macs/rate, or +Inf when the rate is not
// positive, since nothing then runs.
func (c *Cluster) LatencyAtRate(rate float64, macs int64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return c.FixedOverheadS + float64(macs)/rate
}

// DynamicPowerMW returns the dynamic power of the whole cluster busy at
// the given OPP, Ceff·V²·f, in mW.
func (c *Cluster) DynamicPowerMW(opp OPP) float64 {
	return c.Power.CeffMWPerV2GHz * opp.VoltageV * opp.VoltageV * opp.FreqGHz
}

// BusyPowerMW returns cluster power with n cores active at the given
// utilisation (0..1), in mW: the dynamic power scaled by the active share
// of the cores and by util, plus static power.
func (c *Cluster) BusyPowerMW(opp OPP, n int, util float64) float64 {
	n, util = max(0, min(n, c.Cores)), max(0, min(util, 1))
	dyn := c.DynamicPowerMW(opp) * (float64(n) / float64(c.Cores)) * util
	return dyn + c.Power.StaticMW
}

// Duty returns the share of time a periodic inference keeps its cluster
// busy: its latency over its period, capped at 1.
func Duty(latencyS, periodS float64) float64 { return min(latencyS/periodS, 1) }

// IdlePowerMW returns cluster power with no work (static leakage only).
func (c *Cluster) IdlePowerMW() float64 { return c.Power.StaticMW }

// Platform is a complete SoC/board: a set of clusters sharing a thermal
// envelope and DRAM.
type Platform struct {
	Name     string
	Clusters []*Cluster
	Thermal  ThermalParams
	AmbientC float64
}

// Validate checks the platform and all clusters.
func (p *Platform) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("hw: platform with empty name")
	}
	if len(p.Clusters) == 0 {
		return fmt.Errorf("hw: platform %s has no clusters", p.Name)
	}
	seen := map[string]bool{}
	for _, c := range p.Clusters {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("hw: platform %s duplicate cluster %s", p.Name, c.Name)
		}
		seen[c.Name] = true
	}
	for _, c := range p.Clusters {
		if c.CompanionName != "" && p.Cluster(c.CompanionName) == nil {
			return fmt.Errorf("hw: cluster %s references unknown companion %s", c.Name, c.CompanionName)
		}
	}
	if !finite(p.AmbientC) {
		return fmt.Errorf("hw: platform %s ambient must be finite, got %f", p.Name, p.AmbientC)
	}
	return p.Thermal.Validate()
}

// Cluster returns the named cluster, or nil.
func (p *Platform) Cluster(name string) *Cluster {
	for _, c := range p.Clusters {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Companion resolves a cluster's companion CPU cluster, or nil.
func (p *Platform) Companion(c *Cluster) *Cluster {
	if c.CompanionName == "" {
		return nil
	}
	return p.Cluster(c.CompanionName)
}
