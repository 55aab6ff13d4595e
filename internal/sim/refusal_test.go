package sim

import (
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// TestMigrateRefusals pins what a refused migration tells each caller:
// Migrate returns an error naming the app, cluster and numbers involved,
// TryMigrate the same refusal without allocating, and neither moves the
// app.
func TestMigrateRefusals(t *testing.T) {
	big, onNPU := dnnApp("big", "cpu-big", 3, 4, 0.1), dnnApp("onnpu", "npu", 1, 4, 0.1)
	big.ModelBytes, onNPU.ModelBytes = 6<<20, 4<<20 // 10 MiB will not fit the 8 MiB NPU
	e := mustEngine(t, Config{
		Platform: hw.FlagshipSoC(),
		Apps:     []App{big, onNPU, dnnApp("lit", "cpu-lit", 2, 4, 0.1)},
	})
	if err := e.Run(0.01); err != nil {
		t.Fatal(err)
	}
	if err := e.SetClusterOnline("gpu", false); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		app  string
		to   Placement
		want string
	}{
		{"nope", Placement{Cluster: "cpu-lit", Cores: 1}, `sim: unknown app "nope"`},
		{"lit", Placement{Cluster: "tpu"}, `sim: unknown cluster "tpu"`},
		{"lit", Placement{Cluster: "gpu"}, `sim: cluster "gpu" is offline`},
		{"lit", Placement{Cluster: "cpu-big", Cores: 5}, "sim: core count 5 out of range for cpu-big"},
		{"lit", Placement{Cluster: "cpu-big", Cores: 2}, "sim: cpu-big has 3/4 cores used; cannot fit 2 more"},
		{"big", Placement{Cluster: "npu"}, `sim: model of "big" does not fit npu memory`},
	}
	for _, tc := range cases {
		before := appsOf(e)
		err := e.Migrate(tc.app, tc.to)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Migrate(%s, %+v) = %v, want %q", tc.app, tc.to, err, tc.want)
		}
		r := e.TryMigrate(tc.app, tc.to)
		if !r.Refused() || r.Err() == nil || r.Err().Error() != tc.want {
			t.Errorf("TryMigrate(%s, %+v) = %v, want %q", tc.app, tc.to, r.Err(), tc.want)
		}
		if allocs := testing.AllocsPerRun(10, func() { e.TryMigrate(tc.app, tc.to) }); allocs != 0 {
			t.Errorf("TryMigrate(%s, %+v) allocates %v times", tc.app, tc.to, allocs)
		}
		for i, a := range appsOf(e) {
			if a.Placement != before[i].Placement {
				t.Errorf("refused move of %s moved %s to %+v", tc.app, a.Name, a.Placement)
			}
		}
	}
	if r := e.TryMigrate("lit", Placement{Cluster: "cpu-lit", Cores: 1}); r.Refused() || r.Err() != nil {
		t.Fatalf("a move that fits was refused: %v", r.Err())
	}
	if a, _ := e.App("lit"); a.Placement.Cores != 1 {
		t.Fatalf("lit placed at %+v after a move to 1 core", a.Placement)
	}
}
