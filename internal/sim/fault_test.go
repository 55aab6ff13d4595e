package sim

import (
	"strings"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// faultCtrl flips one cluster offline at failAtS and back online at
// repairAtS (0 = never) from the tick hook, mimicking the workload layer's
// fault windows at the sim API level.
type faultCtrl struct {
	cluster  string
	failAtS  float64
	repairAt float64
	failed   bool
	repaired bool
}

func (c *faultCtrl) OnTick(e *Engine) {
	if !c.failed && e.Now() >= c.failAtS {
		c.failed = true
		if err := e.SetClusterOnline(c.cluster, false); err != nil {
			panic(err)
		}
	}
	if c.failed && !c.repaired && c.repairAt > 0 && e.Now() >= c.repairAt {
		c.repaired = true
		if err := e.SetClusterOnline(c.cluster, true); err != nil {
			panic(err)
		}
	}
}

func (c *faultCtrl) OnEvent(e *Engine, ev Event) {}

func TestSetClusterOnlineValidation(t *testing.T) {
	e := mustEngine(t, Config{
		Platform: hw.OdroidXU3(),
		Apps:     []App{dnnApp("dnn1", "a7", 4, 1, 1.0)},
	})
	if err := e.SetClusterOnline("nope", false); err == nil {
		t.Fatal("expected error for unknown cluster")
	}
	epoch := e.PlanEpoch()
	// Same-state transition is a no-op: no epoch bump, no counters.
	if err := e.SetClusterOnline("a7", true); err != nil {
		t.Fatal(err)
	}
	if e.PlanEpoch() != epoch {
		t.Fatalf("no-op transition bumped PlanEpoch %d -> %d", epoch, e.PlanEpoch())
	}
	if err := e.SetClusterOnline("a7", false); err != nil {
		t.Fatal(err)
	}
	if e.PlanEpoch() != epoch+1 {
		t.Fatalf("fail transition: PlanEpoch %d, want %d", e.PlanEpoch(), epoch+1)
	}
	if err := e.SetClusterOnline("a7", true); err != nil {
		t.Fatal(err)
	}
	if e.PlanEpoch() != epoch+2 {
		t.Fatalf("repair transition: PlanEpoch %d, want %d", e.PlanEpoch(), epoch+2)
	}
	rep := e.Report()
	if rep.ClusterFails != 1 || rep.ClusterRepairs != 1 {
		t.Fatalf("fails=%d repairs=%d, want 1/1", rep.ClusterFails, rep.ClusterRepairs)
	}
}

func TestClusterFailAbortsAndUnhosts(t *testing.T) {
	// 10 fps DNN on the A7; the cluster dies at 3 s and never repairs.
	e := mustEngine(t, Config{
		Platform:   hw.OdroidXU3(),
		Apps:       []App{dnnApp("dnn1", "a7", 4, 1, 0.1)},
		Controller: &faultCtrl{cluster: "a7", failAtS: 3},
		TickS:      0.05,
		LogEvents:  true,
	})
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	info, err := e.App("dnn1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Aborted == 0 {
		t.Fatalf("no jobs aborted across a cluster failure: %+v", info)
	}
	// Frames released while unhosted abort instead of completing.
	if info.Completed >= info.Released {
		t.Fatalf("completed %d of %d released with a dead cluster", info.Completed, info.Released)
	}
	if got := e.UnhostedApps(); got != 1 {
		t.Fatalf("UnhostedApps = %d, want 1", got)
	}
	rep := e.Report()
	if rep.ClusterFails != 1 || rep.ClusterRepairs != 0 {
		t.Fatalf("fails=%d repairs=%d, want 1/0", rep.ClusterFails, rep.ClusterRepairs)
	}
	if rep.JobsAborted != info.Aborted {
		t.Fatalf("Report.JobsAborted=%d, app aborted=%d", rep.JobsAborted, info.Aborted)
	}
	// ~7 s of the run had the app sitting on dead hardware.
	if rep.UnhostedS < 6.5 || rep.UnhostedS > 7.5 {
		t.Fatalf("UnhostedS = %.2f, want ~7", rep.UnhostedS)
	}
	var fails, drops int
	for _, ev := range rep.Events {
		switch {
		case ev.Kind == EvClusterFail:
			fails++
			if ev.Cluster != "a7" {
				t.Fatalf("fail event names cluster %q", ev.Cluster)
			}
		case ev.Kind == EvFrameDrop && ev.Detail() == "unhosted":
			drops++
		}
	}
	if fails != 1 || drops == 0 {
		t.Fatalf("event log: %d fail events, %d unhosted drops", fails, drops)
	}
}

func TestClusterRepairRestoresService(t *testing.T) {
	plat := hw.OdroidXU3()
	e := mustEngine(t, Config{
		Platform:   plat,
		Apps:       []App{dnnApp("dnn1", "a7", 4, 1, 0.1)},
		Controller: &faultCtrl{cluster: "a7", failAtS: 3, repairAt: 5},
		TickS:      0.05,
	})
	// Max frequency so the 10 fps period is sustainable outside the fault.
	if err := e.SetOPP("a7", len(plat.Cluster("a7").OPPs)-1); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	info, _ := e.App("dnn1")
	if e.UnhostedApps() != 0 {
		t.Fatalf("app still unhosted after repair")
	}
	// Service resumed: far more completions than the 3 s pre-fault span
	// alone could produce (30 frames at 10 fps).
	if info.Completed < 60 {
		t.Fatalf("completed %d frames, want service restored after repair", info.Completed)
	}
	rep := e.Report()
	if rep.ClusterFails != 1 || rep.ClusterRepairs != 1 {
		t.Fatalf("fails=%d repairs=%d, want 1/1", rep.ClusterFails, rep.ClusterRepairs)
	}
	if rep.UnhostedS < 1.5 || rep.UnhostedS > 2.5 {
		t.Fatalf("UnhostedS = %.2f, want ~2", rep.UnhostedS)
	}
}

func TestOfflineClusterDrawsNoPower(t *testing.T) {
	plat := hw.OdroidXU3()
	e := mustEngine(t, Config{
		Platform: plat,
		Apps:     []App{dnnApp("dnn1", "a7", 4, 1, 0.5)},
	})
	before := totalPowerMW(e)
	if before <= 0 {
		t.Fatalf("idle power %.1f, want > 0", before)
	}
	if err := e.SetClusterOnline("a7", false); err != nil {
		t.Fatal(err)
	}
	if err := e.SetClusterOnline("a15", false); err != nil {
		t.Fatal(err)
	}
	if got := totalPowerMW(e); got != 0 {
		t.Fatalf("power with all clusters offline = %.3f mW, want 0", got)
	}
	ci, err := e.Cluster("a7")
	if err != nil {
		t.Fatal(err)
	}
	if ci.Online {
		t.Fatal("ClusterInfo.Online true for failed cluster")
	}
	if ci.Util != 0 || ci.PowerMW != 0 {
		t.Fatalf("offline cluster util=%.2f power=%.1f, want 0/0", ci.Util, ci.PowerMW)
	}
}

func TestMigrateToOfflineClusterRejected(t *testing.T) {
	e := mustEngine(t, Config{
		Platform: hw.OdroidXU3(),
		Apps:     []App{dnnApp("dnn1", "a7", 4, 1, 1.0)},
	})
	if err := e.SetClusterOnline("a15", false); err != nil {
		t.Fatal(err)
	}
	err := e.Migrate("dnn1", Placement{Cluster: "a15", Cores: 1})
	if err == nil || !strings.Contains(err.Error(), "offline") {
		t.Fatalf("Migrate onto offline cluster: err=%v, want offline rejection", err)
	}
	// Migration off a dead cluster onto a live one is exactly the
	// degraded-fallback move and must stay legal.
	if err := e.SetClusterOnline("a7", false); err != nil {
		t.Fatal(err)
	}
	if err := e.SetClusterOnline("a15", true); err != nil {
		t.Fatal(err)
	}
	if err := e.Migrate("dnn1", Placement{Cluster: "a15", Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if e.UnhostedApps() != 0 {
		t.Fatalf("app migrated off dead cluster still counts unhosted")
	}
}

func TestFaultStateSurvivesReset(t *testing.T) {
	cfg := Config{
		Platform: hw.OdroidXU3(),
		Apps:     []App{dnnApp("dnn1", "a7", 4, 1, 1.0)},
	}
	e := mustEngine(t, cfg)
	if err := e.SetClusterOnline("a7", false); err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	// Reset restores every cluster online and zeroes fault counters.
	ci, err := e.Cluster("a7")
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Online {
		t.Fatal("Reset left cluster offline")
	}
	rep := e.Report()
	if rep.ClusterFails != 0 || rep.UnhostedS != 0 || rep.JobsAborted != 0 {
		t.Fatalf("Reset kept fault stats: %+v", rep)
	}
	if e.UnhostedApps() != 0 {
		t.Fatal("Reset left apps unhosted")
	}
}
