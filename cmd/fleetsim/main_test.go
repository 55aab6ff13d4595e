package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/emlrtm/emlrtm/internal/fleet"
)

// fleetsim runs one invocation in-process and returns its stdout; any
// error fails the test.
func fleetsim(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("fleetsim %s: %v\nstderr:\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.Bytes()
}

// TestGoldenReports pins the default run's report bytes to internal/fleet's
// goldens, the same comparison CI makes against the built binary.
func TestGoldenReports(t *testing.T) {
	for golden, args := range map[string][]string{
		"golden_seed1_n32.json":        {"-scenarios", "32", "-seed", "1", "-workers", "8"},
		"golden_faulty_seed1_n16.json": {"-scenarios", "16", "-seed", "1", "-classes", "faulty", "-workers", "8"},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "fleet", "testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := fleetsim(t, args...); !bytes.Equal(got, want) {
			t.Errorf("fleetsim %s drifted from %s", strings.Join(args, " "), golden)
		}
	}
}

// TestShardsMergeToOneProcessReport: two shard streams, merged, give the
// one-process report byte for byte, per-scenario results included. 9
// workloads × 2 policies put shard 2/2's first run mid-workload.
func TestShardsMergeToOneProcessReport(t *testing.T) {
	dir := t.TempDir()
	fleetArgs := []string{"-scenarios", "9", "-seed", "1", "-policies", "heuristic,minenergy", "-classes", "faulty,thermal"}
	want := fleetsim(t, append(fleetArgs, "-results")...)
	merge := []string{"merge", "-results"}
	for _, shard := range []string{"1/2", "2/2"} {
		path := filepath.Join(dir, strings.Replace(shard, "/", "of", 1)+".ndjson")
		if out := fleetsim(t, append(fleetArgs, "-shard", shard, "-out", path)...); len(out) != 0 {
			t.Fatalf("shard %s wrote %d bytes to stdout", shard, len(out))
		}
		merge = append(merge, path)
	}
	if got := fleetsim(t, merge...); !bytes.Equal(got, want) {
		t.Fatal("merged shards differ from the one-process report")
	}
}

// TestPolicySweepWorkerInvariant: a 3-policy sweep prints the same bytes
// at any worker count, and its report carries per-policy groups and
// regret; its table has a row per policy. Two more sweeps, of faults,
// heat and churn on the platform mix and on flagship-soc alone, print
// the same -results bytes at -workers 1 and 8: a worker reuses its engine
// and manager from run to run, so state that leaks from one run into the
// next shows there.
func TestPolicySweepWorkerInvariant(t *testing.T) {
	const policies = "heuristic,maxaccuracy,minenergy"
	sweep := []string{"-scenarios", "16", "-seed", "3", "-policies", policies}
	one := fleetsim(t, append(sweep, "-workers", "1")...)
	if eight := fleetsim(t, append(sweep, "-workers", "8")...); !bytes.Equal(one, eight) {
		t.Fatal("sweep at -workers 1 differs from -workers 8")
	}
	for _, stacks := range [][]string{
		{"-scenarios", "64", "-seed", "2", "-classes", "faulty,thermal,churn", "-policies", policies, "-results"},
		{"-scenarios", "48", "-seed", "4", "-platforms", "flagship-soc", "-classes", "faulty,thermal,churn", "-policies", policies, "-results"},
	} {
		if !bytes.Equal(fleetsim(t, append(stacks, "-workers", "1")...), fleetsim(t, append(stacks, "-workers", "8")...)) {
			t.Errorf("%v at -workers 1 differs from -workers 8", stacks)
		}
	}
	var rep fleet.Report
	if err := json.Unmarshal(one, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.ByPolicy) != 3 || len(rep.Regret) != 3 {
		t.Errorf("sweep report has %d byPolicy groups and %d regret rows, want 3 each", len(rep.ByPolicy), len(rep.Regret))
	}
	table := fleetsim(t, "-scenarios", "8", "-seed", "3", "-policies", "heuristic,minenergy", "-format", "table")
	for _, row := range []string{"policy:heuristic", "policy:minenergy", "policy regret"} {
		if !bytes.Contains(table, []byte(row)) {
			t.Errorf("sweep table lacks %q:\n%s", row, table)
		}
	}
}

// TestLatencyFreeShardRefused: a shard stream whose records carry no
// latencies, as the retired -nolat switch wrote them, is refused by merge
// and by -resume, which leaves the file as it was. The header stays as
// written: -nolat's header key is refused on its own
// (TestUnknownHeaderKeyRefused).
func TestLatencyFreeShardRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ndjson")
	shard := []string{"-scenarios", "4", "-seed", "3", "-shard", "1/1", "-out", path}
	fleetsim(t, shard...)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	lean := bytes.Clone(lines[0])
	for _, line := range lines[1:] {
		if i := bytes.Index(line, []byte(`,"latencies":`)); i >= 0 {
			line = append(line[:i:i], "}\n"...)
		}
		lean = append(lean, line...)
	}
	if err := os.WriteFile(path, lean, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"merge", path}, append(shard, "-resume")} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "scenario 0 carries 0 latency samples") || !strings.Contains(err.Error(), path) {
			t.Errorf("fleetsim %s: error %v, want it to name %s and scenario 0's missing samples", strings.Join(args, " "), err, path)
		}
		if stdout.Len() != 0 {
			t.Errorf("fleetsim %s: printed %q", strings.Join(args, " "), stdout.Bytes())
		}
	}
	if back, err := os.ReadFile(path); err != nil || !bytes.Equal(back, lean) {
		t.Errorf("refused -resume changed the file (read error %v)", err)
	}
}

// TestFormat4ShardRefused: a stream written before workloads were sampled
// from internal/rng (format 4; the fixture is that build's golden stream)
// is refused by merge, and by -resume under the config it was written
// with, although every record's seed still derives from that config: its
// ids name other workloads now. The refused -resume leaves the file as it
// was.
func TestFormat4ShardRefused(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "fleet", "testdata", "format4_stream_seed1.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	cut := bytes.Join(lines[:len(lines)-2], nil) // the last record is missing, so -resume has a run to add
	path := filepath.Join(t.TempDir(), "s.ndjson")
	shard := []string{"-scenarios", "14", "-seed", "1", "-platforms", "odroid-xu3", "-shard", "1/1", "-out", path, "-resume"}
	for _, tc := range []struct {
		args   []string
		stream []byte
	}{{[]string{"merge", path}, raw}, {shard, cut}} {
		if err := os.WriteFile(path, tc.stream, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "format version 4, want 5") || !strings.Contains(err.Error(), path) {
			t.Errorf("fleetsim %s: error %v, want it to name %s and its format version", strings.Join(tc.args, " "), err, path)
		}
		if stdout.Len() != 0 {
			t.Errorf("fleetsim %s: printed %q", strings.Join(tc.args, " "), stdout.Bytes())
		}
		if back, err := os.ReadFile(path); err != nil || !bytes.Equal(back, tc.stream) {
			t.Errorf("fleetsim %s changed the file (read error %v)", strings.Join(tc.args, " "), err)
		}
	}
}

// TestUnknownHeaderKeyRefused: a complete stream whose header carries a
// key the format does not define (the retired "noLatencies", an unknown
// one, or one inside the generator config) is refused by merge, by
// -resume and by fleet.ReadShardFile, naming the file and the key, and
// -resume leaves the file as it was.
func TestUnknownHeaderKeyRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ndjson")
	shard := []string{"-scenarios", "2", "-seed", "3", "-shard", "1/1", "-out", path}
	fleetsim(t, shard...)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range []struct{ key, old, new string }{
		{"noLatencies", "}\n", `,"noLatencies":true}` + "\n"},
		{"bogus", "}\n", `,"bogus":1}` + "\n"},
		{"workloads", `"config":{`, `"config":{"workloads":2,`},
	} {
		forged := bytes.Replace(raw, []byte(extra.old), []byte(extra.new), 1)
		if err := os.WriteFile(path, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		want := `unknown field "` + extra.key + `"`
		for _, args := range [][]string{{"merge", path}, append(shard, "-resume")} {
			var stdout, stderr bytes.Buffer
			err := run(args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), path) {
				t.Errorf("fleetsim %s with %s: error %v, want it to name %s and %s", strings.Join(args, " "), extra.key, err, path, want)
			}
			if stdout.Len() != 0 {
				t.Errorf("fleetsim %s: printed %q", strings.Join(args, " "), stdout.Bytes())
			}
		}
		if _, err := fleet.ReadShardFile(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadShardFile with %s: error %v, want %s", extra.key, err, want)
		}
		if back, err := os.ReadFile(path); err != nil || !bytes.Equal(back, forged) {
			t.Errorf("refused -resume with %s changed the file (read error %v)", extra.key, err)
		}
	}
}

// TestTrainWorkerInvariant: fleetsim train writes the same table bytes at
// any worker count, and prints its summary to stderr. Two refinement
// epochs make some runs replay a run the training already simulated.
func TestTrainWorkerInvariant(t *testing.T) {
	dir := t.TempDir()
	var tables [2][]byte
	for i, workers := range []string{"1", "2"} {
		path := filepath.Join(dir, "table"+workers+".json")
		var stdout, stderr bytes.Buffer
		args := []string{"train", "-seed", "7", "-workloads", "8", "-epochs", "2", "-workers", workers, "-out", path}
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("%v\nstderr:\n%s", err, stderr.Bytes())
		}
		for _, want := range []string{"fleetsim train: wrote " + path, "training summary (seed 7: 8 workloads, 40 runs, 9 replayed", "fallback for unseen states: "} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("-workers %s: stderr lacks %q:\n%s", workers, want, stderr.Bytes())
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = raw
	}
	if !bytes.Equal(tables[0], tables[1]) {
		t.Fatal("table trained at -workers 1 differs from -workers 2")
	}
	if stdout := fleetsim(t, "train", "-seed", "7", "-workloads", "8", "-epochs", "2", "-out", "-"); !bytes.Equal(stdout, tables[0]) {
		t.Fatal("train -out - printed other bytes than the table file")
	}
}

// TestLearnedSweepWorkerInvariant: a sweep of the built-ins and a freshly
// trained table prints the same -results bytes at -workers 1 and 4, with
// a regret row per policy, and its table has a row per policy.
func TestLearnedSweepWorkerInvariant(t *testing.T) {
	table := filepath.Join(t.TempDir(), "table.json")
	fleetsim(t, "train", "-seed", "7", "-workloads", "8", "-epochs", "2", "-out", table)
	learned := "learned:" + table
	sweep := []string{"-scenarios", "8", "-seed", "7", "-policies", "heuristic,maxaccuracy,minenergy," + learned, "-results"}
	one := fleetsim(t, append(sweep, "-workers", "1")...)
	if four := fleetsim(t, append(sweep, "-workers", "4")...); !bytes.Equal(one, four) {
		t.Fatal("learned sweep at -workers 1 differs from -workers 4")
	}
	var rep struct {
		fleet.Report
		Results []fleet.Result
	}
	if err := json.Unmarshal(one, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Regret) != 4 || len(rep.Results) != 32 {
		t.Errorf("learned sweep has %d regret rows and %d results, want 4 and 32", len(rep.Regret), len(rep.Results))
	}
	rows := fleetsim(t, "-scenarios", "8", "-seed", "7", "-policies", "heuristic,minenergy,"+learned, "-format", "table")
	for _, row := range []string{"policy:heuristic", "policy:minenergy", "policy:" + learned, "policy regret"} {
		if !bytes.Contains(rows, []byte(row)) {
			t.Errorf("learned sweep table lacks %q:\n%s", row, rows)
		}
	}
}

// TestRejectedInvocations: every invocation here fails before simulating
// anything — it prints nothing to stdout and creates nothing under -out.
// The first group are usage errors (exit 2), the rest exit 1.
func TestRejectedInvocations(t *testing.T) {
	for _, tc := range []struct {
		args  string // space-separated; OUT is a path in an empty directory
		usage bool
	}{
		{"mrege a.ndjson b.ndjson", true},
		{"-scenarios 2 extra", true},
		{"-nosuchflag", true},
		{"merge", true},
		{"orchestrate -out OUT extra", true},
		{"train -out OUT extra", true},
		{"-scenarios 2 -policies minenergy,", true},
		{"-scenarios 2 -policies heuristic,", true},
		{"-scenarios 2 -policies ,", true},
		{"train -workloads 2 -arms minenergy, -out OUT", true},
		{"-scenarios 2 -platforms odroid-xu3,", true},
		{"-scenarios 2 -classes steady,", true},
		{"-scenarios 2 -nolat", true},
		{"orchestrate -scenarios 2 -shards 1 -out OUT -nolat", true},
		{"-scenarios 2 -workers -5", true},
		{"orchestrate -scenarios 2 -shards 1 -out OUT -workers -5", true},
		{"train -workloads 2 -workers -5 -out OUT", true},
		{"-scenarios 2 -classes bogus", false},
		{"-scenarios 2 -format xml", false},
		{"-scenarios 2 -format table -results", false},
		{"merge -format table -results a.ndjson", false},
		{"-scenarios 2 -shard 1/2", false},
		{"-scenarios 2 -shard 0/2 -out OUT", false},
		{"-scenarios 2 -resume", false},
		{"-scenarios 2 -syncevery -1", false},
		{"-scenarios 0", false},
		{"-scenarios 4611686018427387904 -policies heuristic,minenergy", false},
		{"-scenarios 4611686018427387904 -policies heuristic,minenergy -shard 2/2 -out OUT", false},
		{"train -workloads 2 -missweight 0 -energyweight 0 -out OUT", false},
		{"train -workloads 2 -classes bogus -out OUT", false},
		{"train -workloads 2 -epsilon NaN -out OUT", false},
		{"orchestrate -scenarios 2 -shards 1 -out OUT -stall -1s", false},
		{"orchestrate -scenarios 2 -shards 1 -out OUT -backoff 0s", false},
		{"orchestrate -scenarios 2 -shards 1 -out OUT -retries -1", false},
		{"orchestrate -scenarios 2 -shards 1 -out OUT -format table -results", false},
		{"orchestrate -scenarios 2 -shards 1 -out OUT -classes bogus", false},
	} {
		dir := t.TempDir()
		args := strings.Fields(strings.ReplaceAll(tc.args, "OUT", filepath.Join(dir, "out")))
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Errorf("fleetsim %s: accepted", tc.args)
			continue
		}
		var usage usageError
		if got := errors.As(err, &usage); got != tc.usage {
			t.Errorf("fleetsim %s: usage error %v, want %v (%v)", tc.args, got, tc.usage, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("fleetsim %s: printed %q before failing", tc.args, stdout.Bytes())
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("fleetsim %s: created %s before failing", tc.args, entries[0].Name())
		}
	}
}

// TestHelp: -h prints the usage text and returns flag.ErrHelp, which main
// maps to exit status 0.
func TestHelp(t *testing.T) {
	for _, args := range [][]string{{"-h"}, {"merge", "-h"}, {"orchestrate", "-h"}, {"train", "-h"}} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("fleetsim %s: %v, want flag.ErrHelp", strings.Join(args, " "), err)
		}
		if !strings.HasPrefix(stderr.String(), "usage: fleetsim") || stdout.Len() != 0 {
			t.Errorf("fleetsim %s: stdout %q, stderr %q", strings.Join(args, " "), stdout.Bytes(), stderr.Bytes())
		}
	}
}
