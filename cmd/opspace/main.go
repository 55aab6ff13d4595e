// Command opspace dumps an operating-point space (Fig 4(a) style) as CSV
// for plotting: one row per (cluster, cores, frequency, model level) with
// latency, power, energy and accuracy.
//
// Usage:
//
//	opspace [-platform odroid-xu3|jetson-nano|flagship-soc]
//	        [-profile paper|mobile] [-cores] [-pareto]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/pareto"
	"github.com/emlrtm/emlrtm/internal/perf"
)

func main() {
	platName := flag.String("platform", "odroid-xu3", "platform name")
	profName := flag.String("profile", "paper", "model profile: paper (Table I workload) or mobile (Fig 2 workload)")
	sweepCores := flag.Bool("cores", false, "sweep CPU core counts (task-mapping knob)")
	onlyPareto := flag.Bool("pareto", false, "emit only the Pareto frontier")
	flag.Parse()

	plat, ok := hw.Catalog()[*platName]
	if !ok {
		log.Fatalf("unknown platform %q; have %v", *platName, platformNames())
	}
	var prof perf.ModelProfile
	switch *profName {
	case "paper":
		prof = perf.PaperReferenceProfile()
	case "mobile":
		prof = perf.MobileProfile()
	default:
		log.Fatalf("unknown profile %q", *profName)
	}

	pts := perf.Enumerate(plat, prof, perf.EnumerateOptions{SweepCores: *sweepCores})
	if *onlyPareto {
		pts = pareto.Frontier(pts, pareto.LatencyEnergyMetric)
	}

	fmt.Println("platform,cluster,cores,freq_ghz,level,latency_ms,power_mw,energy_mj,accuracy")
	for _, p := range pts {
		fmt.Printf("%s,%s,%d,%.3f,%s,%.3f,%.1f,%.3f,%.3f\n",
			p.Platform, p.Cluster, p.Cores, p.FreqGHz, p.LevelName,
			p.LatencyS*1000, p.PowerMW, p.EnergyMJ, p.Accuracy)
	}
	fmt.Fprintf(os.Stderr, "%d points\n", len(pts))
}

func platformNames() []string {
	var names []string
	for n := range hw.Catalog() {
		names = append(names, n)
	}
	return names
}
