package rtm

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
	"github.com/emlrtm/emlrtm/internal/sim"
)

// fallbackApp is a running DNN of the paper's reference profile at 10 fps.
func fallbackApp(name, cluster string, cores, level int, modelBytes int64) sim.AppInfo {
	return sim.AppInfo{
		Name: name, Kind: sim.KindDNN, Running: true,
		Placement: sim.Placement{Cluster: cluster, Cores: cores}, Level: level, PeriodS: 0.1,
		Profile: perf.PaperReferenceProfile(), ModelBytes: modelBytes,
	}
}

// fallbackView is a hand-built view of plat with the named clusters
// offline. Its cluster state is what the engine reports before a plan
// actuates: every accelerator's memory free and every cluster idle.
func fallbackView(plat *hw.Platform, offline []string, apps ...sim.AppInfo) View {
	v := View{Snapshot: sim.Snapshot{Platform: plat, Apps: apps}, DynBudgetMW: 10_000}
	for _, cl := range plat.Clusters {
		v.Clusters = append(v.Clusters, sim.ClusterInfo{
			Name: cl.Name, Type: cl.Type, Cores: cl.Cores, MemFree: cl.MemBytes,
			Online: !slices.Contains(offline, cl.Name),
		})
	}
	return v
}

// clusterAt is the platform index of the named cluster, or -1.
func clusterAt(p *hw.Platform, name string) int {
	return slices.IndexFunc(p.Clusters, func(cl *hw.Cluster) bool { return cl.Name == name })
}

// entry is a plan entry as a policy might return it, with numbers of its
// own that the post-pass must either keep or replace.
func entry(app, cluster string, cores, level, opp int, latencyS float64) Assignment {
	return Assignment{App: app, Placement: sim.Placement{Cluster: cluster, Cores: cores},
		Level: level, OPPIndex: opp, LatencyS: latencyS, DynPowMW: 123, Accuracy: 0.5, Pass: 1}
}

// pinned is the degraded pin of app on cluster/cores as the post-pass
// must leave it (numbers are checked separately).
func pinned(app, cluster string, cores int) Assignment {
	return Assignment{App: app, Placement: sim.Placement{Cluster: cluster, Cores: cores}, Level: 1, Pass: 3}
}

// TestDegradedFallback drives the manager's post-pass over hand-built
// views and plans. Besides where each entry ends up, every entry the pass
// rewrites must report its own numbers: its latency at its new cluster,
// cores, level and OPP, and a pin the accuracy of level 1. Entries it
// leaves alone keep theirs.
func TestDegradedFallback(t *testing.T) {
	odroid, flagship := hw.OdroidXU3(), hw.FlagshipSoC()
	const mib = 1 << 20
	bg := sim.AppInfo{Name: "bg", Kind: sim.KindBackground, Running: true,
		Placement: sim.Placement{Cluster: "a7", Cores: 1}, Util: 0.5}
	// A third-party plan on flagship-soc with cpu-big dead: the npu holds
	// a 7 MiB model at full level, the gpu runs at a quarter duty and
	// cpu-lit has half its cores booked. The engine's state, from before
	// the plan, shows the npu empty and the gpu busy.
	accelView := func(strandedBytes int64) View {
		v := fallbackView(flagship, []string{"cpu-big"},
			fallbackApp("big", "npu", 1, 4, 7*mib),
			fallbackApp("g", "gpu", 1, 2, 0),
			fallbackApp("c", "cpu-lit", 2, 4, 0),
			fallbackApp("s", "cpu-big", 2, 3, strandedBytes))
		v.Clusters[clusterAt(flagship, "gpu")].Util = 0.6
		return v
	}
	accelPlan := func() []Assignment {
		return []Assignment{
			entry("big", "npu", 1, 4, 0, 0.001),
			entry("g", "gpu", 1, 2, 0, 0.025),
			entry("c", "cpu-lit", 2, 4, 2, 0.05),
			entry("s", "cpu-big", 2, 3, 4, 0.02),
		}
	}
	for _, tc := range []struct {
		name string
		v    View
		plan []Assignment
		want []Assignment // App, Placement, Level, OPPIndex and Pass
	}{
		{
			name: "over-committed survivor shrinks its largest allocation, ties to the earliest",
			v: fallbackView(odroid, []string{"a15"},
				fallbackApp("d1", "a7", 2, 4, 0), fallbackApp("d2", "a7", 3, 4, 0), fallbackApp("d3", "a7", 2, 4, 0)),
			plan: []Assignment{entry("d1", "a7", 2, 4, 3, 0.1), entry("d2", "a7", 3, 4, 3, 0.1), entry("d3", "a7", 2, 4, 3, 0.1)},
			want: []Assignment{
				{App: "d1", Placement: sim.Placement{Cluster: "a7", Cores: 1}, Level: 4, OPPIndex: 3, Pass: 1},
				{App: "d2", Placement: sim.Placement{Cluster: "a7", Cores: 1}, Level: 4, OPPIndex: 3, Pass: 1},
				{App: "d3", Placement: sim.Placement{Cluster: "a7", Cores: 2}, Level: 4, OPPIndex: 3, Pass: 1},
			},
		},
		{
			name: "a free seat takes the stranded app, no donor needed",
			v:    fallbackView(odroid, []string{"a15"}, fallbackApp("d1", "a7", 2, 4, 0), fallbackApp("d2", "a15", 2, 4, 0)),
			plan: []Assignment{entry("d1", "a7", 2, 4, 5, 0.1), entry("d2", "a15", 2, 4, 5, 0.1)},
			want: []Assignment{
				{App: "d1", Placement: sim.Placement{Cluster: "a7", Cores: 2}, Level: 4, OPPIndex: 5, Pass: 1},
				pinned("d2", "a7", 1),
			},
		},
		{
			name: "with no seat left the donor pass takes over",
			v: fallbackView(odroid, []string{"a15"}, bg,
				fallbackApp("d1", "a7", 3, 4, 0), fallbackApp("d2", "a15", 2, 4, 0)),
			plan: []Assignment{entry("d1", "a7", 3, 4, 5, 0.1), entry("d2", "a15", 2, 4, 5, 0.1)},
			want: []Assignment{
				{App: "d1", Placement: sim.Placement{Cluster: "a7", Cores: 2}, Level: 4, OPPIndex: 5, Pass: 1},
				pinned("d2", "a7", 1),
			},
		},
		{
			name: "a donor naming a level its profile lacks keeps its latency",
			v:    fallbackView(odroid, []string{"a15"}, bg, fallbackApp("d1", "a7", 3, 4, 0), fallbackApp("d2", "a15", 2, 4, 0)),
			plan: []Assignment{entry("d1", "a7", 3, 9, 5, 0.1), entry("d2", "a15", 2, 4, 5, 0.1)},
			want: []Assignment{
				{App: "d1", Placement: sim.Placement{Cluster: "a7", Cores: 2}, Level: 9, OPPIndex: 5, Pass: 1},
				pinned("d2", "a7", 1),
			},
		},
		{
			name: "a third-party pin skips the memory-full npu for the least-loaded gpu",
			v:    accelView(8 * mib), // level 1 needs 2 MiB; the plan leaves the npu 1 MiB
			plan: accelPlan(),
			want: append(accelPlan()[:3], pinned("s", "gpu", 1)),
		},
		{
			name: "a third-party pin takes the least-loaded npu when its level-1 model fits",
			v:    accelView(4 * mib), // level 1 needs 1 MiB
			plan: accelPlan(),
			want: append(accelPlan()[:3], pinned("s", "npu", 1)),
		},
		{
			name: "no seat and no donor leaves the app on the dead cluster",
			v: fallbackView(odroid, []string{"a15"}, fallbackApp("d1", "a7", 1, 4, 0), fallbackApp("d2", "a7", 1, 4, 0),
				fallbackApp("d3", "a7", 1, 4, 0), fallbackApp("d4", "a7", 1, 4, 0), fallbackApp("d5", "a15", 2, 4, 0)),
			plan: []Assignment{entry("d1", "a7", 1, 4, 0, 0.1), entry("d2", "a7", 1, 4, 0, 0.1), entry("d3", "a7", 1, 4, 0, 0.1),
				entry("d4", "a7", 1, 4, 0, 0.1), entry("d5", "a15", 2, 4, 5, 0.1)},
			want: []Assignment{
				{App: "d1", Placement: sim.Placement{Cluster: "a7", Cores: 1}, Level: 4, Pass: 1},
				{App: "d2", Placement: sim.Placement{Cluster: "a7", Cores: 1}, Level: 4, Pass: 1},
				{App: "d3", Placement: sim.Placement{Cluster: "a7", Cores: 1}, Level: 4, Pass: 1},
				{App: "d4", Placement: sim.Placement{Cluster: "a7", Cores: 1}, Level: 4, Pass: 1},
				{App: "d5", Placement: sim.Placement{Cluster: "a15", Cores: 2}, Level: 4, OPPIndex: 5, Pass: 1},
			},
		},
		{
			name: "entries naming an app or a cluster the view lacks are left alone",
			v:    fallbackView(odroid, []string{"a15"}, fallbackApp("d1", "nowhere", 1, 4, 0)),
			plan: []Assignment{entry("ghost", "a15", 2, 4, 5, 0.1), entry("d1", "nowhere", 1, 4, 0, 0.1)},
			want: []Assignment{
				{App: "ghost", Placement: sim.Placement{Cluster: "a15", Cores: 2}, Level: 4, OPPIndex: 5, Pass: 1},
				{App: "d1", Placement: sim.Placement{Cluster: "nowhere", Cores: 1}, Level: 4, Pass: 1},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := slices.Clone(tc.plan)
			NewManager(nil).applyDegradedFallback(&tc.v, tc.plan)
			for i, got := range tc.plan {
				w := tc.want[i]
				if got.App != w.App || got.Placement != w.Placement || got.Level != w.Level ||
					got.OPPIndex != w.OPPIndex || got.Pass != w.Pass {
					t.Errorf("entry %d = %v, want %v", i, got, w)
				}
			}
			checkOwnNumbers(t, &tc.v, in, tc.plan)
		})
	}
}

// checkOwnNumbers holds every entry the post-pass rewrote to its own
// latency (and a pin's accuracy to level 1's), and every other entry to
// the numbers the policy gave it. An entry naming a level or OPP that does
// not exist cannot be priced and keeps its latency.
func checkOwnNumbers(t *testing.T, v *View, in, out []Assignment) {
	t.Helper()
	for i, got := range out {
		was := in[i]
		j, cl := v.appIndex(got.App), v.Platform.Cluster(got.Placement.Cluster)
		priceable := j >= 0 && cl != nil && got.Level >= 1 && got.Level <= v.Apps[j].Profile.MaxLevel() &&
			got.OPPIndex >= 0 && got.OPPIndex < len(cl.OPPs)
		if got.Placement == was.Placement && got.Level == was.Level || !priceable {
			if got.LatencyS != was.LatencyS || got.Accuracy != was.Accuracy {
				t.Errorf("entry %d (%s) kept its place but reports %.6fs/%.3f, the policy gave %.6fs/%.3f",
					i, got.App, got.LatencyS, got.Accuracy, was.LatencyS, was.Accuracy)
			}
			continue
		}
		spec := v.Apps[j].Profile.Level(got.Level)
		if want := perf.InferenceLatencyS(cl, cl.OPPs[got.OPPIndex], got.Placement.Cores, spec.MACs); got.LatencyS != want {
			t.Errorf("entry %d (%s) rewritten to %v reports latency %.6fs, want its own %.6fs", i, got.App, got, got.LatencyS, want)
		}
		if got.Level != was.Level && got.Accuracy != spec.Accuracy {
			t.Errorf("entry %d (%s) pinned to level %d reports accuracy %.3f, want %.3f", i, got.App, got.Level, got.Accuracy, spec.Accuracy)
		}
	}
}

// FuzzPolicyPlan draws a catalog platform, a mask of dead clusters and a
// set of apps (DNNs on any cluster, dead ones included, and CPU or GPU
// co-runners), plans them in place with every built-in policy and a
// learned table, as the manager does, and with a random third-party plan,
// and runs each plan through the manager's post-pass. It must not panic,
// no sealed policy may write the view it planned over, and
// checkFallbackInvariants must hold afterwards.
func FuzzPolicyPlan(f *testing.F) {
	plats := []*hw.Platform{hw.OdroidXU3(), hw.JetsonNano(), hw.FlagshipSoC()}
	var sealed []Policy
	for _, mk := range testPolicies(f) {
		sealed = append(sealed, mk())
	}
	slices.SortFunc(sealed, func(a, b Policy) int { return strings.Compare(a.Name(), b.Name()) })
	f.Add(int64(1), uint8(0), uint8(1), uint8(3))
	f.Add(int64(2), uint8(1), uint8(2), uint8(5))
	f.Add(int64(3), uint8(2), uint8(1), uint8(7))
	f.Add(int64(4), uint8(2), uint8(12), uint8(6))
	f.Add(int64(5), uint8(0), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, platIdx, offMask, nApps uint8) {
		rng := rand.New(rand.NewSource(seed))
		plat := plats[int(platIdx)%len(plats)]
		var offline []string
		for i, cl := range plat.Clusters {
			if offMask>>i&1 == 1 {
				offline = append(offline, cl.Name)
			}
		}
		v := fallbackView(plat, offline, randomApps(rng, plat, 1+int(nApps)%8)...)
		v.DynBudgetMW = rng.Float64() * 8000
		m := NewManager(nil)
		for _, p := range sealed {
			g := guard(p)
			plan := g.planInto(&v, &planScratch{})
			if g.wrote != "" {
				t.Fatalf("%s wrote the view it planned over", p.Name())
			}
			in := slices.Clone(plan)
			m.applyDegradedFallback(&v, plan)
			checkFallbackInvariants(t, p.Name(), &v, in, plan)
		}
		plan := randomPlan(rng, &v)
		in := slices.Clone(plan)
		m.applyDegradedFallback(&v, plan)
		checkFallbackInvariants(t, "third-party", &v, in, plan)
	})
}

// randomApps draws n apps on plat: mostly running DNNs with any level,
// period, model size and placement, plus background co-runners on CPU
// clusters and render co-runners anywhere.
func randomApps(rng *rand.Rand, plat *hw.Platform, n int) []sim.AppInfo {
	apps := make([]sim.AppInfo, 0, n)
	for i := 0; i < n; i++ {
		cl := plat.Clusters[rng.Intn(len(plat.Clusters))]
		a := fallbackApp(string(rune('a'+i)), cl.Name, 1+rng.Intn(cl.Cores), 1+rng.Intn(4), int64(rng.Intn(12<<20)))
		a.PeriodS = 0.02 + rng.Float64()*0.5
		a.Running = rng.Intn(8) > 0
		switch rng.Intn(6) {
		case 0:
			if !cl.Type.IsAccelerator() {
				a.Kind, a.Util = sim.KindBackground, rng.Float64()
			}
		case 1:
			a.Kind, a.Util = sim.KindRender, rng.Float64()
		}
		apps = append(apps, a)
	}
	return apps
}

// randomPlan is a third-party policy's plan: one entry per running DNN
// (some skipped), on any cluster with any core count up to one more than
// the cluster has, at a valid level and OPP, with made-up numbers; and
// now and then an entry for an app the view lacks.
func randomPlan(rng *rand.Rand, v *View) []Assignment {
	var plan []Assignment
	for _, a := range v.Apps {
		if !a.Running || a.Kind != sim.KindDNN || rng.Intn(10) == 0 {
			continue
		}
		cl := v.Platform.Clusters[rng.Intn(len(v.Platform.Clusters))]
		cores := cl.Cores
		if !cl.Type.IsAccelerator() {
			cores = rng.Intn(cl.Cores + 2)
		}
		plan = append(plan, entry(a.Name, cl.Name, cores, 1+rng.Intn(a.Profile.MaxLevel()), rng.Intn(len(cl.OPPs)), rng.Float64()*0.2))
	}
	if rng.Intn(4) == 0 {
		cl := v.Platform.Clusters[rng.Intn(len(v.Platform.Clusters))]
		plan = append(plan, entry("ghost", cl.Name, 2, 1, 0, 0.1))
	}
	return plan
}

// checkFallbackInvariants holds the post-pass's contract over (v, in →
// out), computed without the planners' ledger. On healthy hardware the
// plan is untouched. With a cluster dead:
//   - no online CPU cluster is booked past its cores (co-runners
//     included) unless every entry on it holds at most one core;
//   - every entry's level and OPP index exist;
//   - an entry stays on a dead cluster only when no online cluster can
//     seat its app (a CPU with a free core, an accelerator without a
//     memory cap or with room for the level-1 model) and no entry on an
//     online CPU holds two cores or more.
func checkFallbackInvariants(t *testing.T, who string, v *View, in, out []Assignment) {
	t.Helper()
	anyOffline := false
	for ci := range v.Platform.Clusters {
		anyOffline = anyOffline || !v.ClusterOnline(ci)
	}
	if !anyOffline {
		if !slices.Equal(in, out) {
			t.Fatalf("%s: the post-pass rewrote a plan on healthy hardware:\n in %v\nout %v", who, in, out)
		}
		return
	}
	cls := v.Platform.Clusters
	used := make([]int, len(cls))
	widest := make([]int, len(cls))
	memFree := make([]int64, len(cls))
	for ci, cl := range cls {
		memFree[ci] = cl.MemBytes
	}
	for _, a := range v.Apps {
		if ci := clusterAt(v.Platform, a.Placement.Cluster); a.Running && a.Kind != sim.KindDNN && ci >= 0 && !cls[ci].Type.IsAccelerator() {
			used[ci] += a.Placement.Cores
		}
	}
	donor := false
	for _, asg := range out {
		ci, j := clusterAt(v.Platform, asg.Placement.Cluster), v.appIndex(asg.App)
		if j >= 0 && (asg.Level < 1 || asg.Level > v.Apps[j].Profile.MaxLevel()) {
			t.Fatalf("%s: %v has no such level", who, asg)
		}
		if ci < 0 {
			continue
		}
		if asg.OPPIndex < 0 || asg.OPPIndex >= len(cls[ci].OPPs) {
			t.Fatalf("%s: %v has no such OPP", who, asg)
		}
		if cls[ci].Type.IsAccelerator() {
			if a := v.Apps; j >= 0 && cls[ci].MemBytes > 0 && a[j].ModelBytes > 0 {
				memFree[ci] -= a[j].ModelBytes * int64(asg.Level) / int64(a[j].Profile.MaxLevel())
			}
			continue
		}
		used[ci] += asg.Placement.Cores
		widest[ci] = max(widest[ci], asg.Placement.Cores)
		donor = donor || v.ClusterOnline(ci) && asg.Placement.Cores >= 2
	}
	for ci, cl := range cls {
		if v.ClusterOnline(ci) && !cl.Type.IsAccelerator() && used[ci] > cl.Cores && widest[ci] > 1 {
			t.Fatalf("%s: %s booked %d of %d cores with a %d-core entry on it:\n%v", who, cl.Name, used[ci], cl.Cores, widest[ci], out)
		}
	}
	for _, asg := range out {
		ci, j := clusterAt(v.Platform, asg.Placement.Cluster), v.appIndex(asg.App)
		if ci < 0 || j < 0 || v.ClusterOnline(ci) {
			continue
		}
		if donor {
			t.Fatalf("%s: %v left on dead %s while an online entry could give up a core:\n%v", who, asg, cls[ci].Name, out)
		}
		a := &v.Apps[j]
		for cj, cl := range cls {
			if !v.ClusterOnline(cj) {
				continue
			}
			seat := used[cj] < cl.Cores
			if cl.Type.IsAccelerator() {
				seat = cl.MemBytes == 0 || a.ModelBytes == 0 || a.ModelBytes/int64(a.Profile.MaxLevel()) <= memFree[cj]
			}
			if seat {
				t.Fatalf("%s: %v left on dead %s while %s has a seat:\n%v", who, asg, cls[ci].Name, cl.Name, out)
			}
		}
	}
}
