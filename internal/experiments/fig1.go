package experiments

import (
	"fmt"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/pareto"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/trace"
)

// Fig1Requirement is one application requirement of Fig 1.
type Fig1Requirement struct {
	Name        string
	FPS         float64
	MinAccuracy float64
}

// Fig1Requirements are the paper's three example requirements: 1 fps at
// very-high accuracy, 25 fps at high accuracy, 60 fps at medium accuracy.
// Accuracy tiers map onto the Fig 4(b) ladder.
func Fig1Requirements() []Fig1Requirement {
	return []Fig1Requirement{
		{Name: "1 fps / very-high accuracy", FPS: 1, MinAccuracy: 0.71},
		{Name: "25 fps / high accuracy", FPS: 25, MinAccuracy: 0.68},
		{Name: "60 fps / medium accuracy", FPS: 60, MinAccuracy: 0.62},
	}
}

// Fig1Cell is the design-time choice for one (platform, requirement).
type Fig1Cell struct {
	Platform    string
	Requirement string
	Feasible    bool
	Point       perf.OperatingPoint
}

// Fig1Result bundles the mapping matrix with a rendered table.
type Fig1Result struct {
	Cells []Fig1Cell
	Table *trace.Table
}

// Fig1 reproduces the design-time mapping of Fig 1: the same dynamic DNN
// deployed across three platform classes (NPU-equipped flagship, GPU-class
// Jetson, CPU-only Odroid) under the three application requirements. For
// each cell the minimum-energy operating point meeting both the frame
// period and the accuracy tier is selected; infeasible cells demonstrate
// the paper's point that weaker platforms need more compression (lower
// accuracy) or cannot meet the requirement at all.
func Fig1(prof perf.ModelProfile) Fig1Result {
	platforms := []*hw.Platform{hw.FlagshipSoC(), hw.JetsonNano(), hw.OdroidXU3()}
	res := Fig1Result{
		Table: trace.NewTable("Fig 1 — design-time deployment across platforms",
			"Platform", "Requirement", "Chosen config", "t (ms)", "E (mJ)", "Top-1 (%)"),
	}
	for _, plat := range platforms {
		pts := perf.Enumerate(plat, prof, perf.EnumerateOptions{})
		for _, req := range Fig1Requirements() {
			b := pareto.Budget{MaxLatencyS: 1 / req.FPS, MinAccuracy: req.MinAccuracy}
			best, ok := pareto.MinEnergy(pts, b)
			cell := Fig1Cell{Platform: plat.Name, Requirement: req.Name, Feasible: ok, Point: best}
			res.Cells = append(res.Cells, cell)
			if ok {
				res.Table.AddRow(plat.Name, req.Name,
					fmt.Sprintf("%s on %s @ %.0f MHz", best.LevelName, best.Cluster, best.FreqGHz*1000),
					best.LatencyS*1000, best.EnergyMJ, best.Accuracy*100)
			} else {
				// Retry with the accuracy requirement dropped: report the
				// compromise the platform would need, or full infeasibility.
				relaxed, ok2 := pareto.MinEnergy(pts, pareto.Budget{MaxLatencyS: 1 / req.FPS})
				if ok2 {
					res.Table.AddRow(plat.Name, req.Name,
						fmt.Sprintf("accuracy unmet; best: %s on %s @ %.0f MHz",
							relaxed.LevelName, relaxed.Cluster, relaxed.FreqGHz*1000),
						relaxed.LatencyS*1000, relaxed.EnergyMJ, relaxed.Accuracy*100)
				} else {
					res.Table.AddRow(plat.Name, req.Name, "infeasible", "-", "-", "-")
				}
			}
		}
	}
	return res
}
