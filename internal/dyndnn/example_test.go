package dyndnn_test

import (
	"fmt"
	"log"

	"github.com/emlrtm/emlrtm/internal/dataset"
	"github.com/emlrtm/emlrtm/internal/dyndnn"
)

// ExampleNewAutoScaler drives the model's configuration knob per input
// from the confidence monitor: every inference starts at the 25%
// configuration and escalates through the nested configurations only
// while top-1 softmax confidence stays below the threshold. Sweeping the
// threshold traces an accuracy/compute curve inside one model, without
// the storage and reload costs of the big/little baseline. Training takes
// seconds, so it has no Output block and go test only compiles it.
func ExampleNewAutoScaler() {
	dcfg := dataset.QuickConfig()
	dcfg.TrainN, dcfg.ValN = 1500, 400
	ds := dataset.MustGenerate(dcfg)

	model := dyndnn.MustNew(dyndnn.QuickConfig())
	tcfg := dyndnn.QuickTrainConfig()
	tcfg.EpochsPerStep = 4
	if _, err := model.TrainIncremental(ds, tcfg); err != nil {
		log.Fatal(err)
	}

	thresholds := []float64{0, 0.5, 0.7, 0.85, 0.95, 1.0}
	reps, err := dyndnn.NewAutoScaler(model, 0.8).ThresholdSweep(ds.ValX, ds.ValY, thresholds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("threshold  accuracy  mean MACs  mean level  final-level histogram")
	for i, r := range reps {
		fmt.Printf("   %4.2f     %5.1f%%   %9.0f  %9.2f   %v\n",
			thresholds[i], 100*r.Accuracy, r.MeanMACs, r.MeanLevel, r.LevelCounts)
	}

	// The mid thresholds should sit above the fixed-size curve: the same
	// accuracy at less average compute, from one set of weights.
	fmt.Println("\nfixed configurations for comparison:")
	for _, ev := range model.EvaluateAll(ds) {
		fmt.Printf("   %4s model: %5.1f%%  %9d MACs\n", ev.LevelName, 100*ev.Accuracy, ev.MACs)
	}
}
