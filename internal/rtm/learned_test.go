package rtm

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// trainedTestTable builds a small finalised table over the three built-in
// arms, biased so state lookups are observable: every state it contains
// selects "maxaccuracy" while the fallback is "minenergy".
func trainedTestTable(keys ...string) *LearnedTable {
	t := NewLearnedTable([]string{"heuristic", "maxaccuracy", "minenergy"})
	for _, k := range keys {
		t.Observe(k, 0, 1.0) // heuristic: expensive
		t.Observe(k, 1, 0.1) // maxaccuracy: cheapest in-state
		t.Observe(k, 2, 0.5)
	}
	// Many cheap observations in an extra state drag minenergy's global
	// visit-weighted mean below maxaccuracy's 0.1, making it the fallback.
	for i := 0; i < 50; i++ {
		t.Observe("h9p9s9a9", 2, 0)
	}
	t.Finalise()
	return t
}

func TestLearnedTableFinalise(t *testing.T) {
	tab := trainedTestTable("h1p1s1a1")
	if got := tab.Choose("h1p1s1a1"); got != "maxaccuracy" {
		t.Errorf("trained state chooses %q, want maxaccuracy", got)
	}
	if tab.Fallback != "minenergy" {
		t.Errorf("fallback = %q, want minenergy (lowest global mean cost)", tab.Fallback)
	}
	if got := tab.Choose("h0p0s0a0"); got != "minenergy" {
		t.Errorf("unseen state chooses %q, want the fallback", got)
	}
}

// TestLearnedTableRoundTrip: serialise → read back → identical table and
// identical bytes, the property the trainer's determinism contract and
// CI's cmp-based smoke rest on.
func TestLearnedTableRoundTrip(t *testing.T) {
	tab := trainedTestTable("h1p1s1a1", "h2p3s2a2", "h0p1s0a3")
	raw, err := tab.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadLearnedTable(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab, back) {
		t.Fatalf("round-trip changed the table:\n%+v\n%+v", tab, back)
	}
	raw2, err := back.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("re-marshalling a read table is not byte-identical")
	}
}

// TestReadLearnedTableRefusesUnknownKeys: a table carrying a key it does
// not define, at the top level or inside a state, or followed by anything
// but white space, is refused rather than read as if the extra were
// absent.
func TestReadLearnedTableRefusesUnknownKeys(t *testing.T) {
	raw, err := trainedTestTable("h1p1s1a1").MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLearnedTable(append(raw, " \n\t"...)); err != nil {
		t.Fatalf("trailing white space refused: %v", err)
	}
	for _, tc := range []struct{ name, old, new, want string }{
		{"top-level key", `"version":`, `"bogus":1,"version":`, `unknown field "bogus"`},
		{"state key", `"arm":`, `"temperature":3,"arm":`, `unknown field "temperature"`},
		{"trailing value", "", "{}", "data after the table"},
		{"trailing garbage", "", "x", "data after the table"},
	} {
		forged := append(bytes.Clone(raw), tc.new...)
		if tc.old != "" {
			if forged = bytes.Replace(raw, []byte(tc.old), []byte(tc.new), 1); bytes.Equal(forged, raw) {
				t.Fatalf("%s: %q not found in the table", tc.name, tc.old)
			}
		}
		if _, err := ReadLearnedTable(forged); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

func TestLearnedTableValidate(t *testing.T) {
	base := func() *LearnedTable { return trainedTestTable("h1p1s1a1") }
	cases := []struct {
		name  string
		wreck func(*LearnedTable)
		want  string
	}{
		{"bad version", func(tb *LearnedTable) { tb.Version = 99 }, "version"},
		{"no arms", func(tb *LearnedTable) { tb.Arms = nil }, "no arms"},
		{"nested learned arm", func(tb *LearnedTable) { tb.Arms[0] = "learned:x.json" }, "plain registry name"},
		{"duplicate arm", func(tb *LearnedTable) { tb.Arms[1] = tb.Arms[0] }, "listed twice"},
		{"unknown fallback", func(tb *LearnedTable) { tb.Fallback = "nope" }, "fallback"},
		{"unknown state arm", func(tb *LearnedTable) { tb.States["h1p1s1a1"].Arm = "nope" }, "unknown arm"},
		{"misaligned visits", func(tb *LearnedTable) { tb.States["h1p1s1a1"].Visits = []int{1} }, "one per arm"},
	}
	for _, tc := range cases {
		tb := base()
		tc.wreck(tb)
		err := tb.Validate()
		if err == nil {
			t.Errorf("%s: Validate passed, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestLearnedTableValidateDeterministicError: with several defective
// states, Validate must always report the lexically-first one. It used to
// iterate the States map directly, so *which* defect a multi-defect table
// reported varied run to run — surfaced by detlint's rangemap analyzer.
func TestLearnedTableValidateDeterministicError(t *testing.T) {
	for i := 0; i < 20; i++ {
		tb := trainedTestTable("h0p0s0a1", "h1p1s1a1", "h2p2s2a2")
		tb.States["h1p1s1a1"].Arm = "nope"
		tb.States["h2p2s2a2"].Arm = "nope"
		tb.States["h0p0s0a1"].Visits = []int{1} // lexically first defect
		err := tb.Validate()
		if err == nil {
			t.Fatal("Validate passed on a doubly-defective table")
		}
		if !strings.Contains(err.Error(), `state "h0p0s0a1"`) {
			t.Fatalf("iteration %d: Validate reported %q, want the lexically-first defective state h0p0s0a1", i, err)
		}
	}
}

// FuzzReadLearnedTable: ReadLearnedTable never panics on arbitrary bytes,
// and any table it accepts passes Validate and round-trips through
// MarshalBytes and ReadLearnedTable to an equal table. A shard header's
// "learned:<path>" policy reaches this decoder, so it guards merge input
// as well as fleetsim train output.
func FuzzReadLearnedTable(f *testing.F) {
	raw, err := trainedTestTable("h1p1s1a1", "h2p3s2a2").MarshalBytes()
	if err != nil {
		f.Fatal(err)
	}
	misaligned := trainedTestTable("h1p1s1a1")
	misaligned.States["h1p1s1a1"].Cost = []float64{0.5}
	short, err := json.Marshal(misaligned) // MarshalBytes would refuse it
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(bytes.Replace(raw, []byte("0.1,"), []byte("NaN,"), 1))
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := ReadLearnedTable(data)
		if err != nil {
			return
		}
		if err := tab.Validate(); err != nil {
			t.Fatalf("ReadLearnedTable accepted a table that fails Validate: %v", err)
		}
		again, err := tab.MarshalBytes()
		if err != nil {
			t.Fatalf("accepted table does not marshal: %v", err)
		}
		back, err := ReadLearnedTable(again)
		if err != nil {
			t.Fatalf("marshalled table does not read back: %v", err)
		}
		if !reflect.DeepEqual(tab, back) {
			t.Fatalf("round-trip changed the table:\n%+v\n%+v", tab, back)
		}
	})
}

// TestStateKeyBuckets pins the discretisation on hand-built views: the
// learned table's state space is part of the file format (keys appear in
// serialised tables), so bucket boundaries must not drift silently.
func TestStateKeyBuckets(t *testing.T) {
	v := benchView(t)

	base := StateKey(&v)
	if StateKey(&v) != base {
		t.Fatal("StateKey not deterministic on an identical view")
	}

	// Thermal: pushing the die to the throttle point lands in bucket 0.
	hot := v.Clone()
	hot.TempC = hot.ThrottleC
	if !strings.HasPrefix(StateKey(&hot), "h0") {
		t.Errorf("die at throttle: key %q, want h0 prefix", StateKey(&hot))
	}
	cool := v.Clone()
	cool.TempC = cool.ThrottleC - cool.MarginC - 50
	if !strings.HasPrefix(StateKey(&cool), "h2") {
		t.Errorf("cold die: key %q, want h2 prefix", StateKey(&cool))
	}

	// Power: a zeroed budget is bucket 0, an absurd one bucket 3.
	broke := v.Clone()
	broke.DynBudgetMW = 0
	if !strings.Contains(StateKey(&broke), "p0") {
		t.Errorf("zero budget: key %q, want p0", StateKey(&broke))
	}
	rich := v.Clone()
	rich.DynBudgetMW = 1e12
	if !strings.Contains(StateKey(&rich), "p3") {
		t.Errorf("huge budget: key %q, want p3", StateKey(&rich))
	}

	// Slack: latencies beyond every budget are bucket 0; no running DNNs
	// reports full slack.
	late := v.Clone()
	for i := range late.Apps {
		late.Apps[i].AvgLatency = 10
	}
	if !strings.Contains(StateKey(&late), "s0") {
		t.Errorf("all-missing: key %q, want s0", StateKey(&late))
	}
	idle := v.Clone()
	for i := range idle.Apps {
		idle.Apps[i].Running = false
	}
	if !strings.Contains(StateKey(&idle), "s3") || !strings.HasSuffix(StateKey(&idle), "a0") {
		t.Errorf("no running DNNs: key %q, want s3…a0", StateKey(&idle))
	}

	// App count: the bench view runs three DNNs.
	if !strings.HasSuffix(base, "a3") {
		t.Errorf("bench view key %q, want a3 suffix (three running DNNs)", base)
	}
}

// TestLearnedPolicyDelegates: a learned policy must produce, plan for
// plan, exactly what its selected arm produces — delegation, not
// imitation. The test table forces a known arm for the bench view's state
// and a different fallback, exercising both lookup paths.
func TestLearnedPolicyDelegates(t *testing.T) {
	v := benchView(t)
	key := StateKey(&v)

	tab := trainedTestTable(key)
	pol, err := NewLearnedPolicy("learned:test", tab)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewPolicy("maxaccuracy")
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := pol.Plan(v.Clone()), want.Plan(v.Clone()); !reflect.DeepEqual(got, exp) {
		t.Fatalf("learned plan diverges from its arm:\n got %v\nwant %v", got, exp)
	}

	// An unseen state delegates to the fallback (minenergy here).
	idle := v.Clone()
	idle.TempC = idle.ThrottleC // h0…, not in the table
	fb, err := NewPolicy("minenergy")
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := pol.Plan(idle.Clone()), fb.Plan(idle.Clone()); !reflect.DeepEqual(got, exp) {
		t.Fatalf("fallback plan diverges from the fallback arm:\n got %v\nwant %v", got, exp)
	}

	// The scratch path must agree with the public path.
	sp, ok := Policy(pol).(*learnedPolicy)
	if !ok {
		t.Fatal("learned policy lost its concrete type")
	}
	var sc planScratch
	vv := v.Clone()
	if got, exp := sp.planInto(&vv, &sc), want.Plan(v.Clone()); !reflect.DeepEqual(got, exp) {
		t.Fatalf("planInto diverges from Plan:\n got %v\nwant %v", got, exp)
	}
}

// TestNewPolicyParameterised: the "learned:<path>" registry form loads a
// table file, names the policy by its full parameterised key (what shard
// validation compares), and fails loudly on missing or corrupt files and
// unknown prefixes.
func TestNewPolicyParameterised(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.json")
	if err := trainedTestTable("h1p1s1a1").WriteFile(path); err != nil {
		t.Fatal(err)
	}

	name := "learned:" + path
	pol, err := NewPolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != name {
		t.Errorf("Name() = %q, want the full parameterised key %q", pol.Name(), name)
	}

	if _, err := NewPolicy("learned:" + filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing table file must fail to load")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPolicy("learned:" + bad); err == nil {
		t.Error("corrupt table file must fail to load")
	}
	if _, err := NewPolicy("mystery:arg"); err == nil || !strings.Contains(err.Error(), "parameterised") {
		t.Errorf("unknown prefix error %v should list parameterised families", err)
	}
}
