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
	"io"
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
	if err := run(os.Stdout, *exp, opts, *csv); err != nil {
		log.Fatal(err)
	}
}

// run prints experiment exp ("all" for every one) to w. csv selects
// Fig 4(a)'s CSV series instead of its one-line summary.
func run(w io.Writer, exp string, opts experiments.Options, csv bool) error {
	// The trained profile feeds several experiments; train once when any
	// of them is requested, otherwise fall back to the published numbers.
	var profile perf.ModelProfile
	if exp == "all" || exp == "fig3" {
		fmt.Fprintln(w, "== E4/E6: incremental training (Fig 3) and accuracy per configuration (Fig 4(b)) ==")
		res, err := experiments.TrainDynamic(opts)
		if err != nil {
			return fmt.Errorf("training: %w", err)
		}
		fmt.Fprint(w, res.Fig4b.String())
		fmt.Fprintf(w, "accuracy monotone: %v, spread: %.1f points (paper: 15.2)\n\n",
			res.AccuracyMonotone(), res.AccuracySpread()*100)
		profile = res.Profile
	} else {
		profile = perf.PaperReferenceProfile()
	}

	want := func(name string) bool { return exp == "all" || exp == name }

	if want("table1") {
		fmt.Fprintln(w, "== E1: Table I ==")
		res := experiments.Table1(profile.Level(profile.MaxLevel()).Accuracy)
		fmt.Fprint(w, res.Table.String())
		fmt.Fprintf(w, "worst cell deviation from paper: %.1f%%\n\n", res.MaxRelativeError()*100)
	}
	if want("fig1") {
		fmt.Fprintln(w, "== E2: Fig 1 design-time mapping ==")
		res := experiments.Fig1(perf.PaperReferenceProfile())
		fmt.Fprint(w, res.Table.String())
		fmt.Fprintln(w)
	}
	if want("fig2") {
		fmt.Fprintln(w, "== E3: Fig 2 runtime scenario ==")
		res, err := experiments.Fig2(opts)
		if err != nil {
			return fmt.Errorf("fig2: %w", err)
		}
		fmt.Fprint(w, res.Timeline.String())
		fmt.Fprint(w, res.Summary.String())
		fmt.Fprintf(w, "plans: %d, thermal alarm at t=%.2fs, co-located at end: %v\n\n",
			res.Plans, res.AlarmAtS, res.CoLocated())
	}
	if want("fig4a") {
		fmt.Fprintln(w, "== E5: Fig 4(a) operating-point space ==")
		res := experiments.Fig4a(perf.PaperReferenceProfile())
		if csv {
			fmt.Fprint(w, res.Figure.CSV())
		} else {
			fmt.Fprintf(w, "%d points, t ∈ [%.1f, %.1f] ms, E ∈ [%.1f, %.1f] mJ, %d series\n",
				len(res.Points), res.Stats.MinLatencyS*1000, res.Stats.MaxLatencyS*1000,
				res.Stats.MinEnergyMJ, res.Stats.MaxEnergyMJ, len(res.Figure.Series))
		}
		fmt.Fprintln(w)
	}
	if want("budgets") {
		fmt.Fprintln(w, "== E7: Fig 4 budget worked examples ==")
		res := experiments.Fig4Budgets(perf.PaperReferenceProfile())
		fmt.Fprint(w, res.Table.String())
		fmt.Fprintln(w)
	}
	if want("fig5") {
		fmt.Fprintln(w, "== E8: Fig 5 closed-loop control ==")
		res, err := experiments.Fig5(perf.PaperReferenceProfile(), opts)
		if err != nil {
			return fmt.Errorf("fig5: %w", err)
		}
		fmt.Fprint(w, res.Table.String())
		fmt.Fprintf(w, "knobs: %v\nmonitors: %v\n\n", res.Knobs, res.Monitors)
	}
	if want("ablations") {
		fmt.Fprintln(w, "== A1: knob-combination ablation ==")
		fmt.Fprint(w, experiments.AblationKnobs(perf.PaperReferenceProfile()).Table.String())
		fmt.Fprintln(w)
		fmt.Fprintln(w, "== A2: storage & switching ==")
		fmt.Fprint(w, experiments.AblationSwitching(perf.PaperReferenceProfile()).Table.String())
		fmt.Fprintln(w)
		fmt.Fprintln(w, "== A3: RTM vs no-RTM ==")
		res, err := experiments.AblationNoRTM(opts)
		if err != nil {
			return fmt.Errorf("ablation: %w", err)
		}
		fmt.Fprint(w, res.Table.String())
	}
	return nil
}
