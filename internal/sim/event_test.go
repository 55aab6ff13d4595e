package sim

import "testing"

// TestEventDetail pins Detail to the exact text the timelines have always
// printed for each kind that carries details, and to "" for the rest.
func TestEventDetail(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{Kind: EvDeadlineMiss, App: "dnn1", LatencyS: 0.0523, PeriodS: 1.0 / 30}, "latency 52.3ms > 33.3ms"},
		{Event{Kind: EvThermalAlarm, TempC: 64.96}, "65.0C"},
		{Event{Kind: EvMigrated, App: "dnn1", FromCluster: "npu", Cluster: "cpu-big", Cores: 2}, "npu -> cpu-big/2"},
		{Event{Kind: EvFrameDrop, App: "dnn1", Unhosted: true}, "unhosted"},
		{Event{Kind: EvFrameDrop, App: "dnn1"}, ""},
		{Event{Kind: EvJobComplete, App: "dnn1", LatencyS: 0.01}, ""},
		{Event{Kind: EvClusterFail, Cluster: "a7"}, ""},
	} {
		if got := tc.ev.Detail(); got != tc.want {
			t.Errorf("%s: Detail() = %q, want %q", tc.ev.Kind, got, tc.want)
		}
	}
}
