package rtm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// stateOf reads a state from its table-file spelling, as a table file is
// read; a spelling outside the state grammar panics.
func stateOf(spelling string) State {
	var s State
	if err := s.UnmarshalText([]byte(spelling)); err != nil {
		panic(err)
	}
	return s
}

// trainedTestTable builds a small finalised table over the three built-in
// arms, biased so state lookups are observable: every state it contains
// selects "maxaccuracy" while the fallback is "minenergy".
func trainedTestTable(spellings ...string) *LearnedTable {
	t := NewLearnedTable([]string{"heuristic", "maxaccuracy", "minenergy"})
	for _, k := range spellings {
		s := stateOf(k)
		t.Observe(s, 0, 1.0) // heuristic: expensive
		t.Observe(s, 1, 0.1) // maxaccuracy: cheapest in-state
		t.Observe(s, 2, 0.5)
	}
	// Many cheap observations in an extra state drag minenergy's global
	// visit-weighted mean below maxaccuracy's 0.1, making it the fallback.
	for i := 0; i < 50; i++ {
		t.Observe(stateOf("h2p0s0a4"), 2, 0)
	}
	t.Finalise()
	return t
}

func TestLearnedTableFinalise(t *testing.T) {
	tab := trainedTestTable("h1p1s1a1")
	if got := tab.Choose(stateOf("h1p1s1a1")); got != "maxaccuracy" {
		t.Errorf("trained state chooses %q, want maxaccuracy", got)
	}
	if tab.Fallback != "minenergy" {
		t.Errorf("fallback = %q, want minenergy (lowest global mean cost)", tab.Fallback)
	}
	if got := tab.Choose(stateOf("h0p0s0a0")); got != "minenergy" {
		t.Errorf("unseen state chooses %q, want the fallback", got)
	}
}

// TestLearnedTableGreedy: Greedy is the cheapest visited arm of a state,
// the lower index on a tie, and -1 for a state unseen or unvisited.
func TestLearnedTableGreedy(t *testing.T) {
	tab := NewLearnedTable([]string{"heuristic", "maxaccuracy", "minenergy"})
	tie, cheap, unvisited := stateOf("h0p0s0a1"), stateOf("h1p2s3a4"), stateOf("h2p3s3a0")
	tab.Observe(tie, 2, 0.5)
	tab.Observe(tie, 1, 0.5)
	tab.Observe(cheap, 0, 0.5)
	tab.Observe(cheap, 2, -1)
	tab.States[unvisited] = &LearnedState{Visits: make([]int, 3), Cost: make([]float64, 3)}
	for s, want := range map[State]int{tie: 1, cheap: 2, unvisited: -1, stateOf("h0p0s0a0"): -1} {
		if got := tab.Greedy(s); got != want {
			t.Errorf("Greedy(%v) = %d, want %d", s, got, want)
		}
	}
}

// TestStateSpelling: every state a View can produce spells as the table
// file keys it and reads back, states order as their spellings do, and
// UnmarshalText refuses every other spelling: out-of-range buckets, other
// letters, digits or lengths. MarshalText refuses a state no View gives.
func TestStateSpelling(t *testing.T) {
	var all []State
	for h := range State(stateThermalBuckets) {
		for p := range State(statePowerBuckets) {
			for s := range State(stateSlackBuckets) {
				for a := range State(stateAppsCap + 1) {
					all = append(all, h<<12|p<<8|s<<4|a)
				}
			}
		}
	}
	if got := fmt.Sprint(all[0], " ", all[len(all)-1]); got != "h0p0s0a0 h2p3s3a4" {
		t.Errorf("first and last states spell %q", got)
	}
	for i, s := range all {
		text, err := s.MarshalText()
		if err != nil || string(text) != s.String() {
			t.Fatalf("state %v marshals to %q, %v", s, text, err)
		}
		if back := stateOf(string(text)); back != s {
			t.Fatalf("%q reads back as %#x, want %#x", text, uint32(back), uint32(s))
		}
		if i > 0 && all[i-1].String() >= s.String() {
			t.Fatalf("%v sorts after %v as text, before it as a number", all[i-1], s)
		}
	}
	for _, bad := range []string{"h9p9s9a9", "h3p0s0a0", "h0p4s0a0", "h0p0s4a0", "h0p0s0a5", "h1p1s1a1x", "h1p1s1a", "h01p1s1a1",
		"H1p1s1a1", "h1p1s1a/", "p1h1s1a1", "", "4369"} {
		var s State
		if err := s.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) = %v, want a refusal", bad, s)
		}
	}
	for _, bad := range []State{0x3000, 0x0005, 0x10000, 0xffff} {
		if text, err := bad.MarshalText(); err == nil {
			t.Errorf("state %#x marshals to %q, want a refusal", uint32(bad), text)
		}
	}
}

// TestStateKeyAllocs: StateKey runs once per plan of a table or of the
// trainer's selector, and allocates nothing.
func TestStateKeyAllocs(t *testing.T) {
	v := benchView(t)
	if allocs := testing.AllocsPerRun(100, func() { StateKey(&v) }); allocs != 0 {
		t.Fatalf("StateKey allocated %.1f times, want 0", allocs)
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
// at all, white space included, is refused rather than read as if the
// extra were absent.
func TestReadLearnedTableRefusesUnknownKeys(t *testing.T) {
	raw, err := trainedTestTable("h1p1s1a1").MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, old, new, want string }{
		{"top-level key", `"version":`, `"bogus":1,"version":`, `unknown field "bogus"`},
		{"state key", `"arm":`, `"temperature":3,"arm":`, `unknown field "temperature"`},
		{"trailing white space", "", " \n\t", "not the bytes MarshalBytes writes"},
		{"trailing value", "", "{}", "not the bytes MarshalBytes writes"},
		{"trailing garbage", "", "x", "not the bytes MarshalBytes writes"},
		{"state no view produces", `"h1p1s1a1"`, `"h9p9s9a9"`, `state "h9p9s9a9" is not a learned state`},
		{"state with trailing garbage", `"h1p1s1a1"`, `"h1p1s1a1x"`, `state "h1p1s1a1x" is not a learned state`},
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
		{"unregistered arm", func(tb *LearnedTable) { tb.Arms[2] = "nope" }, `arm "nope" is not a registered policy`},
		{"unknown fallback", func(tb *LearnedTable) { tb.Fallback = "nope" }, "fallback"},
		{"unknown state arm", func(tb *LearnedTable) { tb.States[stateOf("h1p1s1a1")].Arm = "nope" }, "unknown arm"},
		{"misaligned visits", func(tb *LearnedTable) { tb.States[stateOf("h1p1s1a1")].Visits = []int{1} }, "one per arm"},
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
		tb.States[stateOf("h1p1s1a1")].Arm = "nope"
		tb.States[stateOf("h2p2s2a2")].Arm = "nope"
		tb.States[stateOf("h0p0s0a1")].Visits = []int{1} // lexically first defect
		err := tb.Validate()
		if err == nil {
			t.Fatal("Validate passed on a doubly-defective table")
		}
		if !strings.Contains(err.Error(), `state "h0p0s0a1"`) {
			t.Fatalf("iteration %d: Validate reported %q, want the lexically-first defective state h0p0s0a1", i, err)
		}
	}
}

// TestReadLearnedTableOneEncoding: a learned table has one accepted
// encoding, the bytes MarshalBytes writes. A re-indented copy and a copy
// with its keys in another order decode to the same table, and both are
// refused.
func TestReadLearnedTableOneEncoding(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "fleet", "testdata", "golden_learned_table_seed7_n8.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLearnedTable(raw); err != nil {
		t.Fatalf("the golden table is refused: %v", err)
	}
	var reindented bytes.Buffer
	if err := json.Indent(&reindented, raw, "", "\t"); err != nil {
		t.Fatal(err)
	}
	// Through a map, encoding/json writes every object's keys sorted,
	// which is not the table's field order.
	var generic map[string]any
	if err := json.Unmarshal(raw, &generic); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.MarshalIndent(generic, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for name, forged := range map[string][]byte{"re-indented": reindented.Bytes(), "key-reordered": append(reordered, '\n')} {
		if bytes.Equal(forged, raw) {
			t.Fatalf("%s copy equals the golden table", name)
		}
		if _, err := ReadLearnedTable(forged); err == nil || !strings.Contains(err.Error(), "not the bytes MarshalBytes writes") {
			t.Errorf("%s copy: error %v, want a refusal of its encoding", name, err)
		}
	}
}

// FuzzReadLearnedTable: ReadLearnedTable never panics on arbitrary bytes,
// and any table it accepts passes Validate and is exactly the bytes
// MarshalBytes writes for it, which read back to an equal table. A shard header's
// "learned:<path>" policy reaches this decoder, so it guards merge input
// as well as fleetsim train output.
func FuzzReadLearnedTable(f *testing.F) {
	raw, err := trainedTestTable("h1p1s1a1", "h2p3s2a2").MarshalBytes()
	if err != nil {
		f.Fatal(err)
	}
	misaligned := trainedTestTable("h1p1s1a1")
	misaligned.States[stateOf("h1p1s1a1")].Cost = []float64{0.5}
	short, err := json.Marshal(misaligned) // MarshalBytes would refuse it
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(bytes.Replace(raw, []byte("0.1,"), []byte("NaN,"), 1))
	f.Add(short)
	f.Add(bytes.Replace(raw, []byte(`"h1p1s1a1"`), []byte(`"h9p9s9a9"`), 1))
	f.Add(bytes.Replace(raw, []byte(`"h1p1s1a1"`), []byte(`"h1p1s1a1x"`), 1))
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
		if !bytes.Equal(data, again) {
			t.Fatalf("accepted bytes are not MarshalBytes of their table:\n%q\n%q", data, again)
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
	if !strings.HasPrefix(StateKey(&hot).String(), "h0") {
		t.Errorf("die at throttle: key %q, want h0 prefix", StateKey(&hot))
	}
	cool := v.Clone()
	cool.TempC = cool.ThrottleC - cool.MarginC - 50
	if !strings.HasPrefix(StateKey(&cool).String(), "h2") {
		t.Errorf("cold die: key %q, want h2 prefix", StateKey(&cool))
	}

	// Power: a zeroed budget is bucket 0, an absurd one bucket 3.
	broke := v.Clone()
	broke.DynBudgetMW = 0
	if !strings.Contains(StateKey(&broke).String(), "p0") {
		t.Errorf("zero budget: key %q, want p0", StateKey(&broke))
	}
	rich := v.Clone()
	rich.DynBudgetMW = 1e12
	if !strings.Contains(StateKey(&rich).String(), "p3") {
		t.Errorf("huge budget: key %q, want p3", StateKey(&rich))
	}

	// Slack: latencies beyond every budget are bucket 0; no running DNNs
	// reports full slack.
	late := v.Clone()
	for i := range late.Apps {
		late.Apps[i].AvgLatency = 10
	}
	if !strings.Contains(StateKey(&late).String(), "s0") {
		t.Errorf("all-missing: key %q, want s0", StateKey(&late))
	}
	idle := v.Clone()
	for i := range idle.Apps {
		idle.Apps[i].Running = false
	}
	if !strings.Contains(StateKey(&idle).String(), "s3") || !strings.HasSuffix(StateKey(&idle).String(), "a0") {
		t.Errorf("no running DNNs: key %q, want s3…a0", StateKey(&idle))
	}

	// App count: the bench view runs three DNNs.
	if !strings.HasSuffix(base.String(), "a3") {
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

	tab := trainedTestTable(key.String())
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
	sp, ok := Policy(pol).(*armSelector)
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
