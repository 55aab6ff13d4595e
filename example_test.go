package emlrtm_test

import (
	"fmt"
	"log"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	emlrtm "github.com/emlrtm/emlrtm"
)

// ExampleNewDynDNN builds the paper's dynamic DNN, trains it incrementally
// (Fig 3), evaluates every configuration (Fig 4(b)) and switches
// configurations at runtime. Training takes seconds, so it has no Output
// block and go test only compiles it.
func ExampleNewDynDNN() {
	ds, err := emlrtm.GenerateDataset(emlrtm.QuickDatasetConfig())
	if err != nil {
		log.Fatal(err)
	}
	model, err := emlrtm.NewDynDNN(emlrtm.QuickDynDNNConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Incremental training: step i trains group i with groups < i frozen
	// (Fig 3(b)). Earlier groups are bit-identical afterwards, which is
	// what makes runtime pruning free.
	tcfg := emlrtm.DefaultTrainConfig()
	tcfg.EpochsPerStep = 4
	if _, err := model.TrainIncremental(ds, tcfg); err != nil {
		log.Fatal(err)
	}

	fmt.Println("configuration ladder (Fig 4(b)):")
	for _, ev := range model.EvaluateAll(ds) {
		fmt.Printf("  %4s model: top-1 %.1f%% (±%.1f over classes), confidence %.2f, %d MACs, %d params\n",
			ev.LevelName, ev.Accuracy*100, ev.ClassStd*100, ev.Confidence, ev.MACs, ev.Params)
	}

	// Runtime switching: a pointer bump, no retraining, no extra storage.
	batch := ds.ValX.Slice4D(0, 4)
	for _, level := range []int{4, 1, 3} {
		model.SetLevel(level)
		pred := model.Forward(batch).ArgMaxRow()
		fmt.Printf("at %s: predictions for 4 validation images: %v (true: %v)\n",
			model.LevelName(level), pred, ds.ValY[:4])
	}
	fmt.Printf("\none dynamic model stores %d KiB and serves all %d configurations\n",
		model.MemoryBytes(model.Levels())/1024, model.Levels())
}

// ExampleBestOperatingPoint explores the Fig 4(a) operating-point space of
// the Odroid XU3 and answers budget queries, including the paper's two
// worked examples: (400 ms, 100 mJ) → 100% model on the A7, and
// (200 ms, 150 mJ) → 75% model on the A15.
func ExampleBestOperatingPoint() {
	points := emlrtm.OperatingPoints(emlrtm.OdroidXU3(), emlrtm.PaperReferenceProfile(),
		emlrtm.EnumerateOptions{})
	fmt.Printf("operating-point space: %d points (4 configs × 17 A15 + 12 A7 DVFS levels)\n",
		len(points))
	fmt.Printf("Pareto frontier (latency, energy, accuracy): %d points\n\n",
		len(emlrtm.ParetoFrontier(points)))

	queries := []struct {
		name string
		b    emlrtm.Budget
	}{
		{"paper example 1: 400 ms, 100 mJ", emlrtm.Budget{MaxLatencyS: 0.400, MaxEnergyMJ: 100}},
		{"paper example 2: 200 ms, 150 mJ", emlrtm.Budget{MaxLatencyS: 0.200, MaxEnergyMJ: 150}},
		{"tight: 60 ms, any energy", emlrtm.Budget{MaxLatencyS: 0.060}},
		{"frugal: any latency, 30 mJ", emlrtm.Budget{MaxEnergyMJ: 30}},
		{"accuracy floor 0.70, 300 ms", emlrtm.Budget{MaxLatencyS: 0.300, MinAccuracy: 0.70}},
		{"impossible: 1 ms", emlrtm.Budget{MaxLatencyS: 0.001}},
	}
	for _, q := range queries {
		best, ok := emlrtm.BestOperatingPoint(points, q.b)
		if !ok {
			fmt.Printf("%-34s -> no feasible operating point\n", q.name)
			continue
		}
		fmt.Printf("%-34s -> %s\n", q.name, best)
	}

	// Minimum-energy planning for a soft-real-time app: sweep frame rates.
	fmt.Println("\nminimum-energy point per frame-rate target:")
	for _, fps := range []float64{1, 2, 5, 10, 25} {
		best, ok := emlrtm.MinEnergyOperatingPoint(points, emlrtm.Budget{MaxLatencyS: 1 / fps})
		if !ok {
			fmt.Printf("  %5.0f fps: infeasible on this platform\n", fps)
			continue
		}
		fmt.Printf("  %5.0f fps: %s\n", fps, best)
	}
	// Output:
	// operating-point space: 116 points (4 configs × 17 A15 + 12 A7 DVFS levels)
	// Pareto frontier (latency, energy, accuracy): 68 points
	//
	// paper example 1: 400 ms, 100 mJ    -> odroid-xu3/a7 4core @0.9GHz 100%: t=399.9ms P=184mW E=73.6mJ acc=71.2%
	// paper example 2: 200 ms, 150 mJ    -> odroid-xu3/a15 4core @0.9GHz 75%: t=170.7ms P=758mW E=129.4mJ acc=68.8%
	// tight: 60 ms, any energy           -> odroid-xu3/a15 4core @1.8GHz 50%: t=59.6ms P=2113mW E=125.8mJ acc=62.7%
	// frugal: any latency, 30 mJ         -> odroid-xu3/a7 4core @0.7GHz 25%: t=131.9ms P=141mW E=18.6mJ acc=56.0%
	// accuracy floor 0.70, 300 ms        -> odroid-xu3/a7 4core @1.3GHz 100%: t=278.4ms P=323mW E=90.0mJ acc=71.2%
	// impossible: 1 ms                   -> no feasible operating point
	//
	// minimum-energy point per frame-rate target:
	//       1 fps: odroid-xu3/a7 4core @0.7GHz 25%: t=131.9ms P=141mW E=18.6mJ acc=56.0%
	//       2 fps: odroid-xu3/a7 4core @0.7GHz 25%: t=131.9ms P=141mW E=18.6mJ acc=56.0%
	//       5 fps: odroid-xu3/a7 4core @0.7GHz 25%: t=131.9ms P=141mW E=18.6mJ acc=56.0%
	//      10 fps: odroid-xu3/a7 4core @1.0GHz 25%: t=93.8ms P=211mW E=19.8mJ acc=56.0%
	//      25 fps: odroid-xu3/a15 4core @1.4GHz 25%: t=39.7ms P=1325mW E=52.6mJ acc=56.0%
}

// ExampleMinEnergyOperatingPoint is the Fig 1 design-time exercise: deploy
// the same dynamic DNN on three platform classes (NPU flagship, GPU
// Jetson, CPU-only Odroid) under three application requirements, and see
// how much compression each platform needs, or where a requirement is
// unreachable.
func ExampleMinEnergyOperatingPoint() {
	prof := emlrtm.PaperReferenceProfile()
	requirements := []struct {
		name   string
		fps    float64
		minAcc float64
	}{
		{"1 fps, very-high accuracy", 1, 0.71},
		{"25 fps, high accuracy", 25, 0.68},
		{"60 fps, medium accuracy", 60, 0.62},
	}

	for _, plat := range []*emlrtm.Platform{
		emlrtm.FlagshipSoC(), emlrtm.JetsonNano(), emlrtm.OdroidXU3(),
	} {
		points := emlrtm.OperatingPoints(plat, prof, emlrtm.EnumerateOptions{})
		fmt.Printf("%s:\n", plat.Name)
		for _, req := range requirements {
			b := emlrtm.Budget{MaxLatencyS: 1 / req.fps, MinAccuracy: req.minAcc}
			if best, ok := emlrtm.MinEnergyOperatingPoint(points, b); ok {
				fmt.Printf("  %-28s -> %s model on %s @ %.0f MHz (%.1f ms, %.1f mJ)\n",
					req.name, best.LevelName, best.Cluster, best.FreqGHz*1000,
					best.LatencyS*1000, best.EnergyMJ)
				continue
			}
			// Requirement unreachable: report the best accuracy compromise
			// (weaker platforms trade accuracy to meet the same time budget).
			if relaxed, ok := emlrtm.BestOperatingPoint(points, emlrtm.Budget{MaxLatencyS: 1 / req.fps}); ok {
				fmt.Printf("  %-28s -> accuracy unmet; closest: %s model on %s (top-1 %.1f%%)\n",
					req.name, relaxed.LevelName, relaxed.Cluster, relaxed.Accuracy*100)
			} else {
				fmt.Printf("  %-28s -> infeasible at any configuration\n", req.name)
			}
		}
	}
	// Output:
	// flagship-soc:
	//   1 fps, very-high accuracy    -> 100% model on npu @ 400 MHz (1.9 ms, 0.9 mJ)
	//   25 fps, high accuracy        -> 75% model on npu @ 400 MHz (1.6 ms, 0.8 mJ)
	//   60 fps, medium accuracy      -> 50% model on npu @ 400 MHz (1.3 ms, 0.6 mJ)
	// jetson-nano:
	//   1 fps, very-high accuracy    -> 100% model on gpu @ 614 MHz (7.4 ms, 10.0 mJ)
	//   25 fps, high accuracy        -> 75% model on gpu @ 614 MHz (5.6 ms, 7.5 mJ)
	//   60 fps, medium accuracy      -> 50% model on gpu @ 614 MHz (3.7 ms, 5.0 mJ)
	// odroid-xu3:
	//   1 fps, very-high accuracy    -> 100% model on a7 @ 700 MHz (512.7 ms, 72.3 mJ)
	//   25 fps, high accuracy        -> accuracy unmet; closest: 25% model on a15 (top-1 56.0%)
	//   60 fps, medium accuracy      -> infeasible at any configuration
}

// ExampleRunScenario runs the paper's Fig 2 scenario: two DNNs, an AR/VR
// app and a thermal disturbance on an NPU-equipped flagship SoC, managed
// through the runtime manager's knobs and monitors. DNN2 claims the NPU
// at t=5 and pushes DNN1 to the GPU; AR/VR takes the GPU at t=15; the
// thermal alarm sheds DNN1 to the little cluster; at t=25 both DNNs
// co-locate on the NPU.
func ExampleRunScenario() {
	engine, mgr, report, err := emlrtm.RunScenario(emlrtm.Fig2Scenario(), emlrtm.FlagshipSoC(), 0.25, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %.0fs; %d plans, %d migrations, max temp %.1f°C (throttle %.0f°C)\n",
		report.DurationS, mgr.Plans(), report.Migrations, report.MaxTempC, engine.ThrottleC())

	fmt.Println("\ntimeline:")
	for _, ev := range report.Events {
		switch ev.Kind.String() {
		case "app-start", "migrated", "thermal-alarm":
			// An empty detail leaves the padded app column trailing.
			line := fmt.Sprintf("  t=%6.2fs %-13s %-6s %s", ev.TimeS, ev.Kind, ev.App, ev.Detail())
			fmt.Println(strings.TrimRight(line, " "))
		}
	}

	fmt.Println("\nfinal state:")
	for _, a := range report.Apps {
		if a.Kind != emlrtm.KindDNN {
			continue
		}
		fmt.Printf("  %s: %s at %s, %d/%d frames on time (avg %.1f ms)\n",
			a.Name, a.Profile.Level(a.Level).Name, a.Placement.Cluster,
			a.Completed-a.Missed, a.Released, a.AvgLatency*1000)
	}

	// The Fig 5 interface: what the manager actually turned.
	knobs, monitors := mgr.KnobsAndMonitors()
	fmt.Printf("\nknobs:    %v\n", knobs)
	fmt.Printf("monitors: %v\n", monitors)
	// Output:
	// simulated 35s; 11 plans, 5 migrations, max temp 65.3°C (throttle 65°C)
	//
	// timeline:
	//   t=  0.00s app-start     dnn1
	//   t=  5.00s app-start     dnn2
	//   t=  5.00s migrated      dnn1   npu -> gpu/1
	//   t=  5.00s migrated      dnn2   cpu-big -> npu/1
	//   t= 15.00s app-start     vrapp
	//   t= 15.00s migrated      dnn1   gpu -> cpu-big/4
	//   t= 22.50s thermal-alarm        65.3C
	//   t= 22.50s migrated      dnn1   cpu-big -> cpu-lit/4
	//   t= 25.00s migrated      dnn1   cpu-lit -> npu/1
	//
	// final state:
	//   dnn1: 50% at npu, 802/876 frames on time (avg 24.8 ms)
	//   dnn2: 50% at npu, 1794/1801 frames on time (avg 7.1 ms)
	//
	// knobs:    [app.dnn1.level app.dnn2.level dev.cpu-big.opp dev.cpu-lit.opp dev.gpu.opp dev.npu.opp]
	// monitors: [app.dnn1.accuracy app.dnn1.latency app.dnn2.accuracy app.dnn2.latency dev.power dev.temperature]
}

// ExampleRunFleet samples a population of runtime scenarios (platforms ×
// workload mixes × disturbance classes), runs each as an independent
// simulator and manager across a worker pool, and compares how the
// manager holds up per platform and per disturbance class. The same seed
// gives the same report at any worker count.
func ExampleRunFleet() {
	const scenarios, seed = 32, 2026
	rep, results, err := emlrtm.RunFleet(emlrtm.FleetGeneratorConfig{Seed: seed}, scenarios, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet of %d scenarios (seed %d): %d frames, %.1f%% missed, %.1f J\n",
		rep.Overall.Scenarios, seed, rep.Overall.Frames,
		100*rep.Overall.MissRate, rep.Overall.EnergyMJ/1000)

	// Maps iterate in random order; sort so the report prints the same
	// bytes every run.
	fmt.Println("\nper platform:")
	for _, name := range slices.Sorted(maps.Keys(rep.ByPlatform)) {
		g := rep.ByPlatform[name]
		fmt.Printf("  %-14s %2d scenarios  miss %5.1f%%  p95 %6.1f ms  thermal %5.2f%%\n",
			name, g.Scenarios, 100*g.MissRate, 1000*g.P95LatencyS, 100*g.ThermalRate)
	}
	fmt.Println("\nper class:")
	for _, class := range slices.Sorted(maps.Keys(rep.ByClass)) {
		g := rep.ByClass[class]
		fmt.Printf("  %-8s %2d scenarios  miss %5.1f%%  plans %3d  migrations %2d\n",
			class, g.Scenarios, 100*g.MissRate, g.Plans, g.Migrations)
	}

	// The worst single scenario is the interesting one to drill into.
	worst := results[0]
	for _, r := range results {
		if r.Released > 0 && float64(r.Missed+r.Dropped)/float64(r.Released) >
			float64(worst.Missed+worst.Dropped)/float64(max(worst.Released, 1)) {
			worst = r
		}
	}
	fmt.Printf("\nworst scenario: %s (%d/%d frames late or dropped, p95 %.1f ms)\n",
		worst.Name, worst.Missed+worst.Dropped, worst.Released, 1000*worst.P95LatencyS)
	// Output:
	// fleet of 32 scenarios (seed 2026): 73160 frames, 19.7% missed, 1099.1 J
	//
	// per platform:
	//   flagship-soc   12 scenarios  miss  21.3%  p95   11.9 ms  thermal  0.00%
	//   jetson-nano    13 scenarios  miss  11.3%  p95  116.4 ms  thermal  0.00%
	//   odroid-xu3      7 scenarios  miss   5.2%  p95  439.3 ms  thermal  0.00%
	//
	// per class:
	//   bursty    6 scenarios  miss  21.8%  plans  91  migrations  7
	//   churn     7 scenarios  miss   1.0%  plans  31  migrations  8
	//   faulty    4 scenarios  miss   7.9%  plans  38  migrations 16
	//   mixed     5 scenarios  miss  36.5%  plans  62  migrations 10
	//   steady    5 scenarios  miss  16.2%  plans  51  migrations 12
	//   thermal   5 scenarios  miss   0.2%  plans   9  migrations  4
	//
	// worst scenario: mixed-jetson-nano-0027 (598/893 frames late or dropped, p95 100.2 ms)
}

// ExampleRunFleet_policySweep runs three planning policies over the same
// fleet of workloads and compares them head to head. The generator
// regenerates each workload bit-identically per policy, so rows differ
// only because the strategies differ: the pacing heuristic, quality-first
// maxaccuracy and race-to-idle minenergy trade deadline misses, energy
// and delivered accuracy.
func ExampleRunFleet_policySweep() {
	const workloads, seed = 24, 2026
	// Named explicitly: Policies() lists every registered name, including
	// any a caller registered, so its output depends on the process.
	policies := []string{"heuristic", "maxaccuracy", "minenergy"}
	fmt.Printf("sweeping %d policies %v over %d workloads (seed %d, %d runs)\n\n",
		len(policies), policies, workloads, seed, workloads*len(policies))

	rep, results, err := emlrtm.RunFleet(
		emlrtm.FleetGeneratorConfig{Seed: seed, Policies: policies}, workloads, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-12s %7s %7s %11s %11s %10s %9s %6s %5s\n",
		"policy", "frames", "miss%", "p95Lat(ms)", "maxLat(ms)", "energy(J)", "thermal%", "plans", "migr")
	for _, name := range policies {
		g := rep.ByPolicy[name]
		fmt.Printf("%-12s %7d %7.2f %11.1f %11.1f %10.1f %9.2f %6d %5d\n",
			name, g.Frames, 100*g.MissRate, 1000*g.P95LatencyS, 1000*g.MaxLatencyS,
			g.EnergyMJ/1000, 100*g.ThermalRate, g.Plans, g.Migrations)
	}

	// Every policy saw the same workloads: frame releases match pairwise,
	// or the comparison above would compare different work.
	released := map[string]int{}
	byWorkload := map[string]map[string]emlrtm.FleetResult{}
	for _, r := range results {
		released[r.Policy] += r.Released
		if byWorkload[r.Name] == nil {
			byWorkload[r.Name] = map[string]emlrtm.FleetResult{}
		}
		byWorkload[r.Name][r.Policy] = r
	}
	for _, name := range policies {
		if released[name] != released[policies[0]] {
			log.Fatalf("%s released %d frames, %s released %d: workloads diverged",
				name, released[name], policies[0], released[policies[0]])
		}
	}
	fmt.Printf("\nall policies released identical work (%d frames each); differences above are pure strategy\n",
		released[policies[0]])

	// Drill into the sharpest disagreement: the workload where the best
	// and worst policy miss rates differ the most.
	missRate := func(r emlrtm.FleetResult) float64 {
		return float64(r.Missed+r.Dropped) / float64(max(r.Released, 1))
	}
	worstName, worstSpread := "", -1.0
	for _, name := range slices.Sorted(maps.Keys(byWorkload)) {
		lo, hi := 1.0, 0.0
		for _, r := range byWorkload[name] {
			if r.Released > 0 {
				lo, hi = min(lo, missRate(r)), max(hi, missRate(r))
			}
		}
		if hi-lo > worstSpread {
			worstSpread, worstName = hi-lo, name
		}
	}
	fmt.Printf("\nsharpest disagreement: %s (miss-rate spread %.1f%%)\n", worstName, 100*worstSpread)
	for _, name := range policies {
		r := byWorkload[worstName][name]
		fmt.Printf("  %-12s miss %5.1f%%  p95 %7.1f ms  %7.1f J  %2d migrations\n",
			name, 100*missRate(r), 1000*r.P95LatencyS, r.EnergyMJ/1000, r.Migrations)
	}
	// Output:
	// sweeping 3 policies [heuristic maxaccuracy minenergy] over 24 workloads (seed 2026, 72 runs)
	//
	// policy        frames   miss%  p95Lat(ms)  maxLat(ms)  energy(J)  thermal%  plans  migr
	// heuristic      54770   14.39        58.2      1164.7      678.8      0.00    193    39
	// maxaccuracy    54770   27.57        66.3       390.9     1195.2      0.00    218    35
	// minenergy      54770   11.15        33.2       991.1      844.5      0.00    130    43
	//
	// all policies released identical work (54770 frames each); differences above are pure strategy
	//
	// sharpest disagreement: mixed-flagship-soc-0002 (miss-rate spread 72.5%)
	//   heuristic    miss   0.3%  p95     6.7 ms     34.4 J   2 migrations
	//   maxaccuracy  miss  72.8%  p95    20.3 ms     60.1 J   2 migrations
	//   minenergy    miss   0.3%  p95     3.4 ms     39.0 J   2 migrations
}

// ExampleTrainPolicy trains a state → policy selection table on a seeded
// fleet, prints what it learned, then sweeps it against its own base
// policies on the same workloads and reads the per-workload regret. The
// learned policy never invents knob settings: it only picks which base
// strategy plans each tick, per discretised system state, so whatever it
// wins over the best single policy comes from switching strategies as
// conditions change.
func ExampleTrainPolicy() {
	const workloads, seed = 24, 2026

	// Train: every workload under every arm, then epsilon-greedy
	// refinement. The same config retrains the byte-identical table.
	cfg := emlrtm.PolicyTrainConfig{Seed: seed, Workloads: workloads, Epochs: 2, Epsilon: 0.1}
	table, rep, err := emlrtm.TrainPolicy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d workloads (%d runs): %d states, arms %v\n\n",
		rep.Workloads, rep.Runs, rep.States, rep.Arms)

	// The table is plain data: per state, per-arm visit counts and mean
	// costs plus the greedy choice.
	fmt.Println("what the table learned (state: chosen arm, per-arm mean cost):")
	for _, k := range slices.Sorted(maps.Keys(table.States)) {
		st := table.States[k]
		fmt.Printf("  %-10s -> %-12s costs:", k, st.Arm)
		for i, arm := range table.Arms {
			if st.Visits[i] == 0 {
				fmt.Printf("  %s=unvisited", arm)
				continue
			}
			fmt.Printf("  %s=%.3f", arm, st.Cost[i])
		}
		fmt.Println()
	}
	fmt.Printf("  fallback for unseen states: %s\n\n", table.Fallback)

	// Serialise it: "learned:<path>" works anywhere a policy name does.
	dir, err := os.MkdirTemp("", "learnedpolicy")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "table.json")
	if err := table.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	learned := "learned:" + path

	// Sweep the learned policy against its arms on the training fleet.
	sweep := append(append([]string(nil), rep.Arms...), learned)
	frep, _, err := emlrtm.RunFleet(
		emlrtm.FleetGeneratorConfig{Seed: seed, Policies: sweep}, workloads, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %7s %11s %10s | %10s %14s %16s\n",
		"policy", "miss%", "p95Lat(ms)", "energy(J)", "oracleWins", "missRegret(pp)", "energyRegret(J)")
	for _, name := range slices.Sorted(maps.Keys(frep.ByPolicy)) {
		g, r := frep.ByPolicy[name], frep.Regret[name]
		display := name
		if name == learned {
			display = "learned"
		}
		fmt.Printf("%-28s %7.2f %11.1f %10.1f | %7d/%-2d %14.2f %16.2f\n",
			display, 100*g.MissRate, 1000*g.P95LatencyS, g.EnergyMJ/1000,
			r.OracleWins, r.Workloads, 100*r.MissRateRegret, r.EnergyRegretMJ/1000)
	}
	fmt.Println("\nregret reads against the per-workload oracle: zero means never")
	fmt.Println("beaten on that metric. On its training seed the learned row should")
	fmt.Println("come within a tenth of a point of the lowest base miss rate, at no")
	fmt.Println("more energy than the arm that reaches it: it only has to pick arms.")
	// Output:
	// trained on 24 workloads (120 runs): 22 states, arms [heuristic maxaccuracy minenergy]
	//
	// what the table learned (state: chosen arm, per-arm mean cost):
	//   h2p2s0a2   -> minenergy    costs:  heuristic=0.476  maxaccuracy=0.605  minenergy=0.472
	//   h2p2s0a3   -> heuristic    costs:  heuristic=0.480  maxaccuracy=0.718  minenergy=0.490
	//   h2p2s1a1   -> heuristic    costs:  heuristic=0.039  maxaccuracy=unvisited  minenergy=unvisited
	//   h2p2s1a2   -> maxaccuracy  costs:  heuristic=0.435  maxaccuracy=0.387  minenergy=unvisited
	//   h2p2s2a1   -> heuristic    costs:  heuristic=0.045  maxaccuracy=0.074  minenergy=0.058
	//   h2p2s2a2   -> minenergy    costs:  heuristic=unvisited  maxaccuracy=unvisited  minenergy=0.055
	//   h2p2s2a3   -> minenergy    costs:  heuristic=0.068  maxaccuracy=unvisited  minenergy=0.068
	//   h2p2s3a1   -> minenergy    costs:  heuristic=0.147  maxaccuracy=0.278  minenergy=0.134
	//   h2p2s3a2   -> minenergy    costs:  heuristic=0.250  maxaccuracy=0.590  minenergy=0.167
	//   h2p2s3a3   -> heuristic    costs:  heuristic=0.274  maxaccuracy=0.735  minenergy=0.279
	//   h2p3s0a1   -> heuristic    costs:  heuristic=0.085  maxaccuracy=unvisited  minenergy=unvisited
	//   h2p3s0a2   -> maxaccuracy  costs:  heuristic=unvisited  maxaccuracy=0.718  minenergy=unvisited
	//   h2p3s0a3   -> heuristic    costs:  heuristic=0.207  maxaccuracy=0.392  minenergy=unvisited
	//   h2p3s1a1   -> heuristic    costs:  heuristic=0.069  maxaccuracy=0.118  minenergy=0.070
	//   h2p3s1a2   -> minenergy    costs:  heuristic=0.185  maxaccuracy=0.243  minenergy=0.115
	//   h2p3s1a3   -> minenergy    costs:  heuristic=0.206  maxaccuracy=0.276  minenergy=0.198
	//   h2p3s2a1   -> minenergy    costs:  heuristic=unvisited  maxaccuracy=0.074  minenergy=0.063
	//   h2p3s2a2   -> minenergy    costs:  heuristic=0.100  maxaccuracy=0.070  minenergy=0.069
	//   h2p3s2a3   -> minenergy    costs:  heuristic=0.105  maxaccuracy=0.133  minenergy=0.100
	//   h2p3s3a1   -> minenergy    costs:  heuristic=0.091  maxaccuracy=0.156  minenergy=0.066
	//   h2p3s3a2   -> minenergy    costs:  heuristic=0.117  maxaccuracy=0.195  minenergy=0.064
	//   h2p3s3a3   -> minenergy    costs:  heuristic=0.123  maxaccuracy=0.195  minenergy=0.101
	//   fallback for unseen states: minenergy
	//
	// policy                         miss%  p95Lat(ms)  energy(J) | oracleWins missRegret(pp)  energyRegret(J)
	// heuristic                      14.39        58.2      678.8 |      11/24           4.34             0.04
	// learned                        11.16        33.2      823.3 |      10/24           0.16             6.06
	// maxaccuracy                    27.57        66.3     1195.2 |       2/24          11.95            21.56
	// minenergy                      11.15        33.2      844.5 |      10/24           0.09             6.95
	//
	// regret reads against the per-workload oracle: zero means never
	// beaten on that metric. On its training seed the learned row should
	// come within a tenth of a point of the lowest base miss rate, at no
	// more energy than the arm that reaches it: it only has to pick arms.
}

// ExampleOrchestrateFleet runs a fleet as three supervised fleetsim shard
// processes, each streaming to a file in dir, and merges them into a
// report byte-identical to RunFleet's. A shard that stalls or dies is
// killed and resumed from its last flushed scenario. It has no Output
// block, so go test only compiles it: it needs a fleetsim binary built
// with go build ./cmd/fleetsim. CI's crash-resume step runs the same flow
// with a SIGKILL.
func ExampleOrchestrateFleet() {
	const scenarios, seed = 48, 7
	dir, err := os.MkdirTemp("", "orchestrate")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	argv := func(spec emlrtm.FleetShardSpec) []string {
		return []string{"./fleetsim",
			"-scenarios", fmt.Sprint(scenarios), "-seed", fmt.Sprint(seed),
			"-shard", fmt.Sprintf("%d/%d", spec.Index+1, spec.Count),
			"-resume", "-workers", "1", "-out", spec.Path}
	}
	report, _, err := emlrtm.OrchestrateFleet(emlrtm.FleetOrchestratorConfig{
		Config:       emlrtm.FleetGeneratorConfig{Seed: seed},
		Workloads:    scenarios,
		Shards:       3,
		Dir:          dir,
		Start:        emlrtm.FleetCommandStart(argv, os.Stderr),
		StallTimeout: 30 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet of %d scenarios: %d frames, %.1f%% missed\n",
		report.Overall.Scenarios, report.Overall.Frames, 100*report.Overall.MissRate)
}
