package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the benchmark must honour.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// invocation is one parsed benchmark run: its metric lines, its other
// named lines (hashes, withheld notes) and its JSON summary.
type invocation struct {
	lines   map[string]string // first word -> rest of the line
	summary struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
}

func invoke(t *testing.T, args ...string) invocation {
	t.Helper()
	var out bytes.Buffer
	if code := run(append([]string{"-quick", "-repo", "..", "-workdir", t.TempDir()}, args...), &out); code != 0 {
		t.Fatalf("bench %v exited %d:\n%s", args, code, out.String())
	}
	inv := invocation{lines: map[string]string{}}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		if name, rest, ok := strings.Cut(last, " "); ok {
			inv.lines[name] = rest
		}
	}
	if err := json.Unmarshal([]byte(last), &inv.summary); err != nil {
		t.Fatalf("last line is not the JSON summary: %q: %v", last, err)
	}
	return inv
}

// TestWorkloadsReportDeclaredMetrics runs every declared workload at -quick
// size in both modes and checks the contract with BENCHMARK.json: each mode
// reports exactly its declared metrics with their units, each also as a
// "name value unit" line; traced and untraced runs agree on their outcome
// hashes; the spans file parses with non-negative self times.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, workloadNames())
	}
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			untraced := invoke(t, "-workload", w, "-trace", "0")
			// Quick runs are far too small for a p99 with ten samples beyond it.
			checkMetrics(t, untraced, d.EndToEnd, "run_p99_ms")
			if !strings.HasPrefix(untraced.lines["run_p99_ms"], "withheld:") {
				t.Errorf("run_p99_ms not withheld from %s samples: %q", untraced.lines["run_samples"], untraced.lines["run_p99_ms"])
			}

			dir := t.TempDir()
			traced := invoke(t, "-workload", w, "-trace", "1", "-workdir", dir)
			checkMetrics(t, traced, d.PerLayer, "")
			for _, key := range []string{"outcome_sha256", "table_sha256"} {
				if untraced.lines[key] != traced.lines[key] {
					t.Errorf("%s: untraced %q, traced %q", key, untraced.lines[key], traced.lines[key])
				}
			}
			checkSpans(t, filepath.Join(dir, "spans.ndjson"))
		})
	}
}

// checkMetrics requires the summary to hold exactly the declared metrics
// (bar withheld), with declared units, each also printed as a line.
func checkMetrics(t *testing.T, inv invocation, want []declaredMetric, withheld string) {
	t.Helper()
	s := inv.summary
	if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
		t.Errorf("summary correct=%v attempted=%d failed=%d", s.Correct, s.Attempted, s.Failed)
	}
	seen := map[string]bool{}
	for _, m := range want {
		if m.Name == withheld {
			if _, ok := s.Metrics[m.Name]; ok {
				t.Errorf("%s reported, want it withheld", m.Name)
			}
			continue
		}
		seen[m.Name] = true
		got, ok := s.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s unit %q, declared %q", m.Name, got.Unit, m.Unit)
		}
		line := inv.lines[m.Name]
		if value, unit, _ := strings.Cut(line, " "); unit != m.Unit || value != strconv.FormatFloat(got.Value, 'g', -1, 64) {
			t.Errorf("%s line %q does not match summary %v %s", m.Name, line, got.Value, m.Unit)
		}
	}
	for name := range s.Metrics {
		if !seen[name] {
			t.Errorf("metric %s reported but not declared", name)
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if s.ID != len(spans) {
			t.Fatalf("span %d carries id %d", len(spans), s.ID)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	tr := &tracer{spans: spans}
	_, self := tr.totals()
	for name, s := range self {
		if s < 0 {
			t.Errorf("span %s has negative self time %gs", name, s)
		}
	}
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for i, s := range spans {
		if children[i] > s.EndNS-s.StartNS {
			t.Errorf("span %+v: children cover %dns, more than the span", s, children[i])
		}
	}
}

// TestP99NeedsTenBeyond pins the withholding rule at its boundary: the
// nearest-rank p99 of 1000 samples has exactly ten beyond it, of 999 nine.
func TestP99NeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct{ n, beyond int }{{999, 9}, {1000, 10}, {1100, 11}, {50, 0}} {
		s := make([]float64, tc.n)
		for i := range s {
			s[i] = float64(i)
		}
		v, beyond := p99(s)
		if beyond != tc.beyond || v != float64(tc.n-1-tc.beyond) {
			t.Errorf("n=%d: p99 %v with %d beyond, want %d beyond", tc.n, v, beyond, tc.beyond)
		}
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "plan-bound", "-trace", "2"},
		{"-workload", "plan-bound", "-seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 || out.Len() != 0 {
			t.Errorf("bench %v: exit %d, output %q; want exit 2 and no output", args, code, out.String())
		}
	}
}
