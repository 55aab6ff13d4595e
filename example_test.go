package emlrtm_test

import (
	"encoding/json"
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
	reg := mgr.Registry()
	fmt.Printf("\nknobs:    %v\n", reg.KnobNames(""))
	fmt.Printf("monitors: %v\n", reg.MonitorNames(""))
	// Output:
	// simulated 35s; 11 plans, 5 migrations, max temp 65.0°C (throttle 65°C)
	//
	// timeline:
	//   t=  0.00s app-start     dnn1
	//   t=  5.00s app-start     dnn2
	//   t=  5.00s migrated      dnn1   npu -> gpu/1
	//   t=  5.00s migrated      dnn2   cpu-big -> npu/1
	//   t= 15.00s app-start     vrapp
	//   t= 15.00s migrated      dnn1   gpu -> cpu-big/4
	//   t= 22.34s thermal-alarm        65.0C
	//   t= 22.34s migrated      dnn1   cpu-big -> cpu-lit/4
	//   t= 25.00s migrated      dnn1   cpu-lit -> npu/1
	//
	// final state:
	//   dnn1: 50% at npu, 798/876 frames on time (avg 24.9 ms)
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
	// fleet of 32 scenarios (seed 2026): 45731 frames, 18.2% missed, 715.6 J
	//
	// per platform:
	//   flagship-soc    7 scenarios  miss  20.2%  p95    8.5 ms  thermal  0.00%
	//   jetson-nano    11 scenarios  miss   6.7%  p95   77.6 ms  thermal  0.00%
	//   odroid-xu3     14 scenarios  miss  16.8%  p95  557.7 ms  thermal  0.00%
	//
	// per class:
	//   bursty    4 scenarios  miss   3.4%  plans  31  migrations  3
	//   churn     4 scenarios  miss  10.4%  plans  40  migrations  9
	//   faulty    7 scenarios  miss   4.1%  plans  41  migrations 21
	//   mixed     5 scenarios  miss  41.2%  plans  33  migrations  8
	//   steady    7 scenarios  miss   6.6%  plans  31  migrations 10
	//   thermal   5 scenarios  miss  31.0%  plans  35  migrations  6
	//
	// worst scenario: mixed-flagship-soc-0024 (5345/7525 frames late or dropped, p95 23.2 ms)
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
	// heuristic      21192   10.57       190.6      1165.2      427.6      0.00    146    44
	// maxaccuracy    21192    8.82       115.1       957.0      826.7      0.00    115    44
	// minenergy      21192    0.40       147.9       764.4      556.2      0.00     83    42
	//
	// all policies released identical work (21192 frames each); differences above are pure strategy
	//
	// sharpest disagreement: churn-odroid-xu3-0007 (miss-rate spread 66.8%)
	//   heuristic    miss  18.9%  p95   439.3 ms     21.7 J   2 migrations
	//   maxaccuracy  miss  67.9%  p95   515.1 ms     20.7 J   2 migrations
	//   minenergy    miss   1.0%  p95   270.6 ms     31.6 J   2 migrations
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
	fmt.Println("beaten on that metric. The learned row should sit at or below every")
	fmt.Println("base policy — on its training seed it only has to pick the right arm.")
	// Output:
	// trained on 24 workloads (120 runs): 19 states, arms [heuristic maxaccuracy minenergy]
	//
	// what the table learned (state: chosen arm, per-arm mean cost):
	//   h2p1s1a2   -> heuristic    costs:  heuristic=0.435  maxaccuracy=unvisited  minenergy=unvisited
	//   h2p2s0a2   -> maxaccuracy  costs:  heuristic=unvisited  maxaccuracy=0.446  minenergy=unvisited
	//   h2p2s1a2   -> maxaccuracy  costs:  heuristic=0.435  maxaccuracy=0.290  minenergy=unvisited
	//   h2p2s2a1   -> maxaccuracy  costs:  heuristic=unvisited  maxaccuracy=0.065  minenergy=unvisited
	//   h2p2s2a2   -> heuristic    costs:  heuristic=0.120  maxaccuracy=unvisited  minenergy=unvisited
	//   h2p2s3a1   -> minenergy    costs:  heuristic=0.086  maxaccuracy=0.149  minenergy=0.065
	//   h2p2s3a2   -> minenergy    costs:  heuristic=0.199  maxaccuracy=0.390  minenergy=0.159
	//   h2p3s0a1   -> heuristic    costs:  heuristic=0.110  maxaccuracy=unvisited  minenergy=unvisited
	//   h2p3s0a2   -> minenergy    costs:  heuristic=0.288  maxaccuracy=0.728  minenergy=0.109
	//   h2p3s0a3   -> heuristic    costs:  heuristic=0.481  maxaccuracy=0.492  minenergy=unvisited
	//   h2p3s1a1   -> minenergy    costs:  heuristic=0.096  maxaccuracy=unvisited  minenergy=0.036
	//   h2p3s1a2   -> maxaccuracy  costs:  heuristic=0.157  maxaccuracy=0.100  minenergy=0.114
	//   h2p3s1a3   -> minenergy    costs:  heuristic=0.234  maxaccuracy=0.285  minenergy=0.155
	//   h2p3s2a1   -> maxaccuracy  costs:  heuristic=unvisited  maxaccuracy=0.073  minenergy=0.094
	//   h2p3s2a2   -> minenergy    costs:  heuristic=0.055  maxaccuracy=0.155  minenergy=0.049
	//   h2p3s2a3   -> minenergy    costs:  heuristic=0.197  maxaccuracy=0.113  minenergy=0.036
	//   h2p3s3a1   -> minenergy    costs:  heuristic=0.102  maxaccuracy=0.104  minenergy=0.047
	//   h2p3s3a2   -> minenergy    costs:  heuristic=0.136  maxaccuracy=0.197  minenergy=0.058
	//   h2p3s3a3   -> minenergy    costs:  heuristic=0.260  maxaccuracy=0.156  minenergy=0.080
	//   fallback for unseen states: minenergy
	//
	// policy                         miss%  p95Lat(ms)  energy(J) | oracleWins missRegret(pp)  energyRegret(J)
	// heuristic                      10.57       190.6      427.6 |       9/24           8.86             0.05
	// learned                         0.40       147.9      557.4 |      10/24           0.33             5.45
	// maxaccuracy                     8.82       115.1      826.7 |       4/24           5.44            16.68
	// minenergy                       0.40       147.9      556.2 |      11/24           0.33             5.41
	//
	// regret reads against the per-workload oracle: zero means never
	// beaten on that metric. The learned row should sit at or below every
	// base policy — on its training seed it only has to pick the right arm.
}

// ExampleFleetRunner_dropLatencies runs the same seeded fleet twice, once
// carrying the raw per-job latency samples and once without them (the
// fleetsim -nolat switch), and compares result size and latency stats.
// Dropping samples is what makes million-scenario sweeps practical: the
// per-scenario mean, p95 and max survive, and only the pooled group p95
// degrades to the worst per-scenario p95.
func ExampleFleetRunner_dropLatencies() {
	const scenarios, seed = 48, 7
	gen, err := emlrtm.NewFleetGenerator(emlrtm.FleetGeneratorConfig{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	scens := gen.Generate(scenarios)

	run := func(drop bool) (emlrtm.FleetReport, int) {
		runner := &emlrtm.FleetRunner{DropLatencies: drop}
		results := runner.Run(scens)
		b, err := json.Marshal(results)
		if err != nil {
			log.Fatal(err)
		}
		return emlrtm.AggregateFleet(seed, results), len(b)
	}
	repFull, fullBytes := run(false)
	repLean, leanBytes := run(true)

	fmt.Printf("fleet of %d scenarios (seed %d)\n\n", scenarios, seed)
	fmt.Printf("%-18s %14s\n", "", "results JSON")
	fmt.Printf("%-18s %13.1fK\n", "with latencies", float64(fullBytes)/1024)
	fmt.Printf("%-18s %13.1fK\n", "-nolat", float64(leanBytes)/1024)
	fmt.Printf("\nresult payload shrinks %.1fx; per-scenario scalar stats survive:\n",
		float64(fullBytes)/float64(leanBytes))
	fmt.Printf("  pooled  mean %.2f ms  p95 %6.2f ms  max %6.2f ms\n",
		1000*repFull.Overall.MeanLatencyS, 1000*repFull.Overall.P95LatencyS,
		1000*repFull.Overall.MaxLatencyS)
	fmt.Printf("  -nolat  mean %.2f ms  p95 %6.2f ms  max %6.2f ms  (p95 approximated)\n",
		1000*repLean.Overall.MeanLatencyS, 1000*repLean.Overall.P95LatencyS,
		1000*repLean.Overall.MaxLatencyS)
	// Output:
	// fleet of 48 scenarios (seed 7)
	//
	//                      results JSON
	// with latencies            1573.6K
	// -nolat                      23.8K
	//
	// result payload shrinks 66.1x; per-scenario scalar stats survive:
	//   pooled  mean 20.28 ms  p95  87.62 ms  max 1307.82 ms
	//   -nolat  mean 20.28 ms  p95 893.48 ms  max 1307.82 ms  (p95 approximated)
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
