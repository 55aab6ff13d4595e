// Package baselines implements the comparison points the paper positions
// the dynamic DNN against:
//
//   - StaticModelSet — NetAdapt-style static pruning (Yang et al. [5]):
//     one fixed model per (platform, hardware setting, budget). Covering
//     runtime variability requires deploying many models, with the storage
//     and switching overheads of Park et al. [20].
//   - BigLittle — Park et al. [20]: exactly two models (a big and a little
//     one), switched at runtime by a confidence/latency trigger.
//
// The no-RTM baseline (a conventional governor with static mapping) lives
// in rtm.GovernorController.
package baselines

import (
	"fmt"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
)

// StaticModel is one fixed pruned model produced at design time for a
// specific hardware setting.
type StaticModel struct {
	Name     string
	MACs     int64
	Accuracy float64
	Bytes    int64
}

// StaticModelSet is the collection of static models a NetAdapt-style flow
// must deploy to cover a set of hardware settings at a latency budget.
type StaticModelSet struct {
	Models []StaticModel
}

// BuildStaticSet generates, for every (cluster, OPP) hardware setting of
// the platform, the largest model level of prof that meets the latency
// budget — the per-setting model a static pruning flow would emit. Settings
// where even the smallest model misses the budget produce no model.
func BuildStaticSet(p *hw.Platform, prof perf.ModelProfile, budgetS float64) StaticModelSet {
	var set StaticModelSet
	for _, cl := range p.Clusters {
		for oi, opp := range cl.OPPs {
			best := -1
			for _, spec := range prof.Levels {
				lat := perf.InferenceLatencyS(cl, opp, cl.Cores, spec.MACs)
				if lat <= budgetS {
					best = spec.Level
				}
			}
			if best < 0 {
				continue
			}
			spec := prof.Level(best)
			set.Models = append(set.Models, StaticModel{
				Name:     fmt.Sprintf("%s-opp%d-%s", cl.Name, oi, spec.Name),
				MACs:     spec.MACs,
				Accuracy: spec.Accuracy,
				Bytes:    spec.MemBytes,
			})
		}
	}
	return set
}

// DistinctModels returns the number of distinct model sizes in the set —
// the models that actually need storage (identical sizes are stored once).
func (s StaticModelSet) DistinctModels() int {
	seen := map[int64]bool{}
	for _, m := range s.Models {
		seen[m.Bytes] = true
	}
	return len(seen)
}

// StorageBytes returns the storage the distinct models require.
func (s StaticModelSet) StorageBytes() int64 {
	seen := map[int64]bool{}
	var total int64
	for _, m := range s.Models {
		if !seen[m.Bytes] {
			seen[m.Bytes] = true
			total += m.Bytes
		}
	}
	return total
}

// BigLittle is the two-model baseline of Park et al. [20]: inference runs
// on the little model; when its confidence falls below the threshold the
// input is re-run on the big model.
type BigLittle struct {
	Little perf.LevelSpec
	Big    perf.LevelSpec
	// EscalationRate is the fraction of inputs the little model escalates
	// (a function of the confidence threshold; measured offline).
	EscalationRate float64
}

// NewBigLittle builds the baseline from the extreme levels of a profile.
func NewBigLittle(prof perf.ModelProfile, escalationRate float64) BigLittle {
	return BigLittle{
		Little:         prof.Level(1),
		Big:            prof.Level(prof.MaxLevel()),
		EscalationRate: escalationRate,
	}
}

// StorageBytes returns the two-model storage footprint.
func (b BigLittle) StorageBytes() int64 { return b.Little.MemBytes + b.Big.MemBytes }
