// Command paperrepro regenerates every table and figure of the paper plus
// the ablations, printing paper-style tables (and optionally CSV) to
// stdout. internal/experiments' package doc keeps the experiment index.
//
// Usage:
//
//	paperrepro [-exp all|table1|fig1|fig2|fig3|fig4a|budgets|fig5|ablations]
//	           [-quick] [-seed N] [-csv] [-v]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/emlrtm/emlrtm/internal/experiments"
	"github.com/emlrtm/emlrtm/internal/perf"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1, fig1, fig2, fig3, fig4a, budgets, fig5, ablations)")
	quick := flag.Bool("quick", false, "reduced scale (fast)")
	seed := flag.Uint64("seed", 1, "random seed")
	csv := flag.Bool("csv", false, "emit figures as CSV instead of summaries")
	verbose := flag.Bool("v", false, "log progress")
	flag.Parse()

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	if *verbose {
		opts.Logf = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}

	// The trained profile feeds several experiments; train once when any
	// of them is requested, otherwise fall back to the published numbers.
	var profile perf.ModelProfile
	needTraining := *exp == "all" || *exp == "fig3"
	if needTraining {
		fmt.Println("== E4/E6: incremental training (Fig 3) and accuracy per configuration (Fig 4(b)) ==")
		res, err := experiments.TrainDynamic(opts)
		if err != nil {
			log.Fatalf("training: %v", err)
		}
		fmt.Print(res.Fig4b.String())
		fmt.Printf("accuracy monotone: %v, spread: %.1f points (paper: 15.2)\n\n",
			res.AccuracyMonotone(), res.AccuracySpread()*100)
		profile = res.Profile
	} else {
		profile = perf.PaperReferenceProfile()
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }

	if run("table1") {
		fmt.Println("== E1: Table I ==")
		res := experiments.Table1(profile.Level(profile.MaxLevel()).Accuracy)
		fmt.Print(res.Table.String())
		fmt.Printf("worst cell deviation from paper: %.1f%%\n\n", res.MaxRelativeError()*100)
	}
	if run("fig1") {
		fmt.Println("== E2: Fig 1 design-time mapping ==")
		res := experiments.Fig1(perf.PaperReferenceProfile())
		fmt.Print(res.Table.String())
		fmt.Println()
	}
	if run("fig2") {
		fmt.Println("== E3: Fig 2 runtime scenario ==")
		res, err := experiments.Fig2(opts)
		if err != nil {
			log.Fatalf("fig2: %v", err)
		}
		fmt.Print(res.Timeline.String())
		fmt.Print(res.Summary.String())
		fmt.Printf("plans: %d, thermal alarm at t=%.2fs, co-located at end: %v\n\n",
			res.Plans, res.AlarmAtS, res.CoLocated())
	}
	if run("fig4a") {
		fmt.Println("== E5: Fig 4(a) operating-point space ==")
		res := experiments.Fig4a(perf.PaperReferenceProfile())
		if *csv {
			fmt.Print(res.Figure.CSV())
		} else {
			fmt.Printf("%d points, t ∈ [%.1f, %.1f] ms, E ∈ [%.1f, %.1f] mJ, %d series\n",
				len(res.Points), res.Stats.MinLatencyS*1000, res.Stats.MaxLatencyS*1000,
				res.Stats.MinEnergyMJ, res.Stats.MaxEnergyMJ, len(res.Figure.Series))
		}
		fmt.Println()
	}
	if run("budgets") {
		fmt.Println("== E7: Fig 4 budget worked examples ==")
		res := experiments.Fig4Budgets(perf.PaperReferenceProfile())
		fmt.Print(res.Table.String())
		fmt.Println()
	}
	if run("fig5") {
		fmt.Println("== E8: Fig 5 closed-loop control ==")
		res, err := experiments.Fig5(perf.PaperReferenceProfile(), opts)
		if err != nil {
			log.Fatalf("fig5: %v", err)
		}
		fmt.Print(res.Table.String())
		fmt.Printf("knobs: %v\nmonitors: %v\n\n", res.Knobs, res.Monitors)
	}
	if run("ablations") {
		fmt.Println("== A1: knob-combination ablation ==")
		fmt.Print(experiments.AblationKnobs(perf.PaperReferenceProfile()).Table.String())
		fmt.Println()
		fmt.Println("== A2: storage & switching ==")
		fmt.Print(experiments.AblationSwitching(perf.PaperReferenceProfile()).Table.String())
		fmt.Println()
		fmt.Println("== A3: RTM vs no-RTM ==")
		res, err := experiments.AblationNoRTM(opts)
		if err != nil {
			log.Fatalf("ablation: %v", err)
		}
		fmt.Print(res.Table.String())
	}
}
