package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// goldenStreamPath is a complete stream of 14 odroid-xu3 workloads at seed
// 1, every class sampled (one faulty run), latencies kept, as ResumeShard
// wrote it with encoding/json doing the record encoding.
const goldenStreamPath = "testdata/golden_stream_seed1.ndjson"

// goldenStreamConfig and goldenStreamTotal regenerate the golden stream.
var goldenStreamConfig = GeneratorConfig{Seed: 1, Platforms: []string{"odroid-xu3"}}

const goldenStreamTotal = 14

func readGoldenStream(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(goldenStreamPath)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func strictlyAscending(runs []LatencyRun) bool {
	for i := 1; i < len(runs); i++ {
		if !(runs[i].ValueS > runs[i-1].ValueS) {
			return false
		}
	}
	return true
}

// refUnmarshal is the reference decoding of a record line: json.Unmarshal
// into a Result, then the format's rules between runs.
func refUnmarshal(line []byte) (Result, error) {
	var r Result
	if err := json.Unmarshal(line, &r); err != nil {
		return Result{}, err
	}
	samples := 0
	for _, run := range r.Latencies {
		samples += run.Count
	}
	switch {
	case len(r.Latencies) > 0 && samples > min(r.Completed, maxRecordLatencies):
		return Result{}, errors.New("more samples than completed jobs")
	case !strictlyAscending(r.Latencies):
		return Result{}, errors.New("run values do not strictly ascend")
	}
	return r, nil
}

// runsOf run-length encodes samples, equal neighbours into one run.
func runsOf(samples ...float64) []LatencyRun {
	var runs []LatencyRun
	for _, v := range samples {
		if n := len(runs); n > 0 && runs[n-1].ValueS == v {
			runs[n-1].Count++
			continue
		}
		runs = append(runs, LatencyRun{ValueS: v, Count: 1})
	}
	return runs
}

// jsonDecodeStream decodes a stream with the encoding/json reference
// alone: what ReadShard must agree with.
func jsonDecodeStream(t *testing.T, raw []byte) ShardResult {
	t.Helper()
	lines := bytes.SplitAfter(raw, []byte("\n"))
	s := ShardResult{Results: []Result{}}
	if err := json.Unmarshal(lines[0], &s.StreamHeader); err != nil {
		t.Fatal(err)
	}
	for _, line := range lines[1:] {
		if len(line) == 0 {
			continue
		}
		r, err := refUnmarshal(line)
		if err != nil {
			t.Fatal(err)
		}
		s.Results = append(s.Results, r)
	}
	return s
}

// TestGoldenStream: the stream bytes are those the encoding/json reference
// writes for the golden fleet. A fresh ResumeShard and a StreamWriter
// re-encoding the decoded records both reproduce the file byte for byte,
// and ReadShard decodes it to what the reference decodes. Regenerate after a deliberate
// behaviour change with
//
//	go test ./internal/fleet -run TestGoldenStream -update
//
// which rewrites the file from a fresh ResumeShard, every record line
// re-encoded by refMarshal, and then runs the comparisons against it.
func TestGoldenStream(t *testing.T) {
	if *update {
		writeGoldenStream(t)
	}
	raw := readGoldenStream(t)
	want := jsonDecodeStream(t, raw)
	if len(want.Results) != goldenStreamTotal {
		t.Fatalf("golden stream has %d records, want %d", len(want.Results), goldenStreamTotal)
	}
	var sawFault bool
	for _, r := range want.Results {
		sawFault = sawFault || r.ClusterFails > 0
		if len(r.Latencies) == 0 {
			t.Fatalf("golden record %d carries no latencies", r.ID)
		}
		if !strictlyAscending(r.Latencies) {
			t.Fatalf("golden record %d latency runs do not strictly ascend", r.ID)
		}
	}
	if !sawFault {
		t.Fatal("golden stream has no faulty run; it no longer covers the fault fields")
	}

	got, err := ReadShard(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("ReadShard decodes the golden stream differently from encoding/json")
	}

	if again := writeStream(t, got); !bytes.Equal(again, raw) {
		t.Errorf("StreamWriter re-encoding differs from the golden stream:%s", firstDiff(raw, again))
	}

	path := filepath.Join(t.TempDir(), "golden.ndjson")
	if _, err := (&Runner{Workers: 1}).ResumeShard(path, goldenStreamConfig, goldenStreamTotal, 0, 1); err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, raw) {
		t.Errorf("ResumeShard output differs from the golden stream:%s", firstDiff(raw, fresh))
	}
}

// TestGoldenStreamWorkCounts pins the golden stream's size: its bytes and
// the latency values it spells out, one per [value,count] run, against the
// samples those runs expand to. A change that moves them on purpose
// updates the numbers and says so.
func TestGoldenStreamWorkCounts(t *testing.T) {
	raw := readGoldenStream(t)
	values, samples := 0, 0
	for _, line := range bytes.SplitAfter(raw, []byte("\n"))[1:] {
		if len(line) == 0 {
			continue
		}
		var rec Result
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		values += len(rec.Latencies)
		for _, run := range rec.Latencies {
			samples += run.Count
		}
	}
	if got, want := len(raw), 8677; got != want {
		t.Errorf("golden stream is %d bytes, want %d", got, want)
	}
	if got, want := values, 93; got != want {
		t.Errorf("golden stream encodes %d latency values, want %d", got, want)
	}
	if got, want := samples, 2324; got != want {
		t.Errorf("golden stream carries %d latency samples, want %d", got, want)
	}
}

// writeGoldenStream rewrites the golden stream: the header line as
// ResumeShard wrote it (encoding/json encodes headers), then each record as
// refMarshal encodes it, so the file pins the hand-written codec to
// encoding/json rather than to itself.
func writeGoldenStream(t *testing.T) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.ndjson")
	if _, err := (&Runner{Workers: 1}).ResumeShard(path, goldenStreamConfig, goldenStreamTotal, 0, 1); err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := bytes.Cut(fresh, []byte("\n"))
	out := append(header, '\n')
	for _, r := range jsonDecodeStream(t, fresh).Results {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	if err := os.WriteFile(goldenStreamPath, out, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", goldenStreamPath)
}

// checkRecordCodec requires appendRecord to emit json.Marshal's bytes for r,
// or to fail where it fails (with json.Marshal's error text for an
// unsupported value), and decodeRecord to decode those bytes as
// refUnmarshal does.
func checkRecordCodec(t *testing.T, name string, r Result) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	got, gotErr := appendRecord(nil, &r)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: appendRecord error %v, json.Marshal error %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		var unsupported *json.UnsupportedValueError
		if errors.As(wantErr, &unsupported) && gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: appendRecord error %q, json.Marshal error %q", name, gotErr, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: appendRecord differs from json.Marshal:\n got %s\nwant %s", name, got, want)
	}
	var dec Result
	if _, err := decodeRecord(got, &dec, nil); err != nil {
		t.Fatalf("%s: decodeRecord: %v", name, err)
	}
	ref, err := refUnmarshal(got)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(dec, ref) {
		t.Errorf("%s: decodeRecord gives %+v, json.Unmarshal %+v", name, dec, ref)
	}
}

// TestRecordCodecCoversEveryField: the field table lists every Result
// field in declaration order, and a Result with every field set and the
// zero Result both encode to json.Marshal's bytes: with every field
// written, the table's keys are encoding/json's, and with every field
// zero, its omitempty flags are. A field of a kind the table cannot
// encode panics at init.
func TestRecordCodecCoversEveryField(t *testing.T) {
	var all Result
	v := reflect.ValueOf(&all).Elem()
	if len(recordFields) != v.NumField() {
		t.Fatalf("field table has %d entries, Result %d fields", len(recordFields), v.NumField())
	}
	for i := range recordFields {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int:
			fv.SetInt(-12345)
		case reflect.Uint64:
			fv.SetUint(math.MaxUint64)
		case reflect.String:
			fv.SetString("value-" + v.Type().Field(i).Name)
		case reflect.Float64:
			fv.SetFloat(0.1 + float64(i))
		default:
			fv.Set(reflect.ValueOf([]LatencyRun{{1e-7, 2}, {0.25, 1}, {3, 4}}))
		}
	}
	all.Completed = 7 // a record holds at most one sample per completed job
	checkRecordCodec(t, "every field", all)
	checkRecordCodec(t, "zero", Result{})
	all.Latencies = []LatencyRun{} // left out, as omitempty leaves out an empty slice
	checkRecordCodec(t, "empty latencies", all)
}

// TestRecordCodecSpecialValues covers the float formatting boundaries, the
// strings encoding/json escapes, and the values the writer refuses: the
// floats encoding/json refuses and strings that are not valid UTF-8.
func TestRecordCodecSpecialValues(t *testing.T) {
	base := Result{ID: 3, Name: "n", Class: ClassFaulty, Platform: "odroid-xu3", Policy: "heuristic", Seed: 9}
	floats := []float64{
		1e-7, -1e-7, 1e-6, 9.99999e-7, 1e21, -1e21, 1e20, 999999999999999999999.0,
		5e-324, -5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-9, 1.5e-10,
		math.Copysign(0, -1), 0.1, 123456789, 0.07760818664369752,
	}
	for _, f := range floats {
		r := base
		r.DurationS, r.UnhostedS, r.RecoverTotalS = f, f, f
		r.Latencies = runsOf(min(f, 1), f, f, max(f, 1))
		r.Completed = 4
		checkRecordCodec(t, "float "+formatG(f), r)
	}
	for name, runs := range map[string][]LatencyRun{
		"zero count":     {{0.1, 0}, {0.2, 3}},
		"negative count": {{0.1, -1}, {0.2, 4}},
	} {
		r := base
		r.Latencies = runs
		r.Completed = 3
		checkRecordCodec(t, name, r)
		if _, err := appendRecord(nil, &r); err == nil {
			t.Errorf("appendRecord accepted %s", name)
		}
	}
	// Run order is checkRuns' to judge, before appendRecord encodes: the
	// writer refuses every run list its reader refuses.
	for name, runs := range map[string][]LatencyRun{
		"descending runs": {{0.1, 1}, {0.3, 1}, {0.2, 1}},
		"equal runs":      {{0.1, 1}, {0.1, 2}},
	} {
		s := fakeShard(GeneratorConfig{Seed: 5}, 8, 2, 3)
		r := s.Results[0]
		r.Latencies = runs
		r.Completed = 3
		sw, err := NewStreamWriter(io.Discard, s.StreamHeader)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Append(r); err == nil || !strings.Contains(err.Error(), "strictly ascend") {
			t.Errorf("Append of %s: error %v, want a run-order complaint", name, err)
		}
	}
	for _, s := range []string{`"<&>` + "\n", "héllo ✓", "tab\there", "line\u2028sep", `back\slash`, "\x7f", "\ufffd", ""} {
		r := base
		r.Err = s
		r.Name = s
		checkRecordCodec(t, "string "+s, r)
	}
	// json.Marshal rewrites a string that is not valid UTF-8, so the line
	// would decode to another string: the writer refuses it.
	for _, s := range []string{"\xff\xfe", "ok\xc3", "\xed\xa0\x80"} {
		sh := fakeShard(GeneratorConfig{Seed: 5}, 8, 2, 3)
		r := sh.Results[0]
		r.Err = s
		sw, err := NewStreamWriter(io.Discard, sh.StreamHeader)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Append(r); err == nil || !strings.Contains(err.Error(), "not valid UTF-8") {
			t.Errorf("Append of err %q: error %v, want a UTF-8 complaint", s, err)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := base
		r.P95LatencyS = f
		checkRecordCodec(t, "scalar "+formatG(f), r)
		r = base
		r.Latencies = []LatencyRun{{1, 1}, {f, 1}}
		r.Completed = 2
		checkRecordCodec(t, "latency "+formatG(f), r)
		if _, err := appendRecord(nil, &r); err == nil {
			t.Errorf("appendRecord accepted a %g latency", f)
		}
	}
}

// validStrings reports whether every string field of r is valid UTF-8.
func validStrings(r Result) bool {
	v := reflect.ValueOf(r)
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.String && !utf8.ValidString(f.String()) {
			return false
		}
	}
	return true
}

func formatG(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// TestDecodeRecordMatchesJSON: decodeRecord accepts a line exactly when
// it is json.Marshal's encoding of the Result encoding/json decodes it to,
// and then decodes it as encoding/json does. A line encoding/json reads
// but a stream writer never writes is refused, and so is a written line
// whose latency runs break a format rule.
func TestDecodeRecordMatchesJSON(t *testing.T) {
	written, err := json.Marshal(Result{ID: 1, Name: "a", Class: ClassSteady, Platform: "p", Policy: "q", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		string(written),
		`{"id":1,"name":"a","class":"steady","platform":"p","policy":"q","seed":2}`,
		` {"id":1}`,
		`{"id":1} `,
		`{"id":1}x`,
		`{"ID":1}`,
		`{"id":1.0}`,
		`{"id":1e2}`,
		`{"id":-0}`,
		`{"id":01}`,
		`{"id":+1}`,
		`{"id":99999999999999999999}`,
		`{"seed":-1}`,
		`{"seed":-0}`,
		`{"id":null}`,
		`{"latencies":[]}`,
		`{"latencies":null}`,
		`{"latencies":[1,,2]}`,
		`{"latencies":[1e400]}`,
		`{"durationS":1e-400}`,
		`{"name":"aA"}`,
		`{"name":"a","name":"b"}`,
		`{"id":1,"id":2}`,
		`[]`,
		`null`,
		``,
	} {
		checkDecodeRecord(t, []byte(line))
		checkDecodeRecord(t, []byte(line+"\n"))
	}
	// A written line whose latency runs break a format rule, or keep it in
	// a spelling the writer does not use.
	line := bytes.SplitAfter(readGoldenStream(t), []byte("\n"))[1]
	rec, err := refUnmarshal(line)
	if err != nil {
		t.Fatal(err)
	}
	for _, runs := range runVariants(rec.Completed) {
		edited := withLatencies(t, line, runs)
		checkDecodeRecord(t, edited)
		checkDecodeRecord(t, bytes.TrimSuffix(edited, []byte("\n")))
	}
}

// checkDecodeRecord requires decodeRecord to accept line exactly when
// encoding/json decodes it, with valid latency runs, to a Result that
// json.Marshal encodes back to line, with every string valid UTF-8, and
// then to decode it to that Result. A refused line leaves the Result zero.
// On the way it holds appendRecord to encoding/json, not to itself: for
// every Result json.Unmarshal decodes, appendRecord writes json.Marshal's
// bytes, or fails when a string is not valid UTF-8.
func checkDecodeRecord(t *testing.T, line []byte) {
	t.Helper()
	var got Result
	_, gotErr := decodeRecord(line, &got, nil)
	want, wantErr := refUnmarshal(line)
	written := false
	if wantErr == nil {
		ref, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("%q: json.Marshal of what json.Unmarshal decoded: %v", line, err)
		}
		enc, encErr := appendRecord(nil, &want)
		valid := validStrings(want)
		switch {
		case valid && (encErr != nil || !bytes.Equal(enc, ref)):
			t.Fatalf("%q: appendRecord differs from json.Marshal (error %v):\n got %s\nwant %s", line, encErr, enc, ref)
		case !valid && encErr == nil:
			t.Fatalf("%q: appendRecord wrote a string that is not valid UTF-8: %s", line, enc)
		}
		written = valid && bytes.Equal(ref, line)
	}
	if (gotErr == nil) != written {
		t.Fatalf("%q: decodeRecord error %v; json.Unmarshal error %v, line is json.Marshal's encoding: %v", line, gotErr, wantErr, written)
	}
	if gotErr != nil {
		if !reflect.DeepEqual(got, Result{}) {
			t.Fatalf("%q: decodeRecord failed but left %+v", line, got)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decodeRecord gives %+v, json.Unmarshal %+v", line, got, want)
	}
}

// TestUnwrittenRecordRefused: a record line that encoding/json reads but
// a stream writer never writes (an unknown key, white space, reordered
// keys, a count spelled 1.0, empty or null latencies) is refused by
// ReadShard, and so by merge, and resume treats it as a torn line: it
// truncates the stream there and runs the rest again, ending with the
// golden bytes.
func TestUnwrittenRecordRefused(t *testing.T) {
	raw := readGoldenStream(t)
	lines := bytes.SplitAfter(raw, []byte("\n"))
	last := len(lines) - 2 // the final record; the split ends with an empty element
	line := lines[last]
	rec, err := refUnmarshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(line, &fields); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(fields) // the same fields, keys sorted
	if err != nil {
		t.Fatal(err)
	}
	for name, edited := range map[string][]byte{
		"unknown key":     append(bytes.TrimSuffix(line, []byte("}\n")), `,"bogus":1}`+"\n"...),
		"white space":     bytes.Replace(line, []byte(`"id":`), []byte(`"id": `), 1),
		"reordered keys":  append(sorted, '\n'),
		"count 1.0":       withLatencies(t, line, fmt.Sprintf(`[[0.01,1.0],[0.02,%d]]`, rec.Completed-1)),
		"empty latencies": withLatencies(t, line, "[]"),
		"null latencies":  withLatencies(t, line, "null"),
	} {
		if _, err := json.Marshal(json.RawMessage(edited)); err != nil {
			t.Fatalf("%s: the edit is not JSON: %v", name, err)
		}
		lines[last] = edited
		stream := bytes.Join(lines, nil)
		want := fmt.Sprintf("decoding stream record %d", rec.ID)
		if _, err := ReadShard(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: ReadShard error %v, want it to contain %q", name, err, want)
		}
		path := filepath.Join(t.TempDir(), "s.ndjson")
		if err := os.WriteFile(path, stream, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := (&Runner{Workers: 1}).ResumeShard(path, goldenStreamConfig, goldenStreamTotal, 0, 1); err != nil {
			t.Errorf("%s: ResumeShard: %v", name, err)
		}
		if back, err := os.ReadFile(path); err != nil || !bytes.Equal(back, raw) {
			t.Errorf("%s: resumed stream differs from the golden one (read error %v):%s", name, err, firstDiff(raw, back))
		}
	}
}

// withLatencies returns a copy of the record line with its latencies
// replaced by the JSON text runs (the whole field is dropped when runs is
// empty).
func withLatencies(t testing.TB, line []byte, runs string) []byte {
	t.Helper()
	i := bytes.Index(line, []byte(`,"latencies":`))
	if i < 0 {
		t.Fatalf("record has no latencies: %s", line)
	}
	out := append([]byte{}, line[:i]...)
	if runs != "" {
		out = append(append(out, `,"latencies":`...), runs...)
	}
	return append(out, "}\n"...)
}

// runVariants returns latency runs for a record of completed jobs, each
// breaking one format rule or spelling runs as the writer does not, plus
// one the format accepts: the ways a hand-edited or corrupted line can go
// wrong.
func runVariants(completed int) []string {
	c := completed
	return []string{
		fmt.Sprintf(`[[0.01,%d]]`, c),                 // valid: one run
		fmt.Sprintf(`[[0.01,1.0],[0.02,%d]]`, c-1),    // a count spelled as a float
		fmt.Sprintf(`[[0.02,1],[0.01,%d]]`, c-1),      // descending values
		fmt.Sprintf(`[[0.02,1.0],[0.01,%d]]`, c-1),    // descending values, a count spelled as a float
		fmt.Sprintf(`[[0.01,%d]]`, c-1),               // fewer samples than completed
		fmt.Sprintf(`[[0.01,%d]]`, c+1),               // more samples than completed
		fmt.Sprintf(`[[0.01,0],[0.02,%d]]`, c),        // count 0
		fmt.Sprintf(`[[0.01,-1],[0.02,%d]]`, c+1),     // count -1
		`[[0.01,1e15]]`,                               // count 1e15
		`[[0.01,1000000000000000]]`,                   // count 1e15 as an integer
		fmt.Sprintf(`[[0.01,1.5],[0.02,%d]]`, c-1),    // fractional count
		fmt.Sprintf(`[[0.01,1],[0.01,%d]]`, c-1),      // adjacent runs, equal values
		fmt.Sprintf(`[[0,1],[-0,%d]]`, c-1),           // adjacent runs, 0 == -0
		fmt.Sprintf(`[[1e400,%d]]`, c),                // a non-finite value
		fmt.Sprintf(`[[0.01],[0.02,%d]]`, c),          // a run with its count missing
		fmt.Sprintf(`[[0.01,1,7],[0.02,%d]]`, c-1),    // a run with an extra element
		fmt.Sprintf(`[0.01,[0.02,%d]]`, c),            // a bare sample
		fmt.Sprintf(`[[0.01,01],[0.02,%d]]`, c-1),     // a count with a leading zero
		fmt.Sprintf(`[[0.01,1],null,[0.02,%d]]`, c-1), // a null run
		`[]`,
		`null`,
		"",
	}
}

// TestDecodeRecordAllocatesAtMostCompleted: a record whose counts claim
// more samples than its completed jobs fails, however the count is
// spelled, and nothing is sized by the counts. Expanding a million samples
// would take 8 MB.
func TestDecodeRecordAllocatesAtMostCompleted(t *testing.T) {
	line := bytes.SplitAfter(readGoldenStream(t), []byte("\n"))[1]
	for _, edited := range [][]byte{
		withLatencies(t, line, `[[0.01,1000000]]`),
		withLatencies(t, line, `[[0.01,1e6]]`),
	} {
		edited = bytes.TrimSuffix(edited, []byte("\n"))
		var r Result
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeRecord(edited, &r, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("decodeRecord accepted %s", edited)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("refusing %s allocated %d bytes", edited, n)
		}
	}
}

// fuzzSeeds returns the golden stream's records without their newlines,
// each also cut in two places, and shard files built from its first two
// records: a complete stream, its header, torn variants of both, and the
// same shard as a one-document JSON file (classic, also returned alone),
// which readers must refuse. Both sets also carry the first record with
// its latency runs edited by runVariants. Seeds stay a few kilobytes so
// the fuzzer can minimise what it finds.
func fuzzSeeds(t testing.TB) (files, records [][]byte, classic []byte) {
	raw := readGoldenStream(t)
	for _, line := range bytes.Split(raw, []byte("\n"))[1:] {
		if len(line) > 0 {
			records = append(records, line, line[:len(line)/2], line[:len(line)-2])
		}
	}
	s, err := ReadShard(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	s.Results = s.Results[:2]
	s.Hi = s.Lo + 2
	stream := writeStream(t, s)
	classic = classicShardDoc(t, s)
	header, _, _ := bytes.Cut(stream, []byte("\n"))
	files = [][]byte{stream, stream[:len(stream)-7], header, header[:len(header)/2], classic, classic[:len(classic)/2]}
	// The run rules: the stream with its first record's runs edited, and
	// the edited record alone.
	lines := bytes.SplitAfter(stream, []byte("\n"))
	for _, runs := range runVariants(s.Results[0].Completed) {
		edited := withLatencies(t, lines[1], runs)
		records = append(records, bytes.TrimSuffix(edited, []byte("\n")))
		files = append(files, bytes.Join([][]byte{lines[0], edited, lines[2]}, nil))
	}
	return files, records, classic
}

// FuzzDecodeRecord: for any bytes, decodeRecord accepts exactly the lines
// that are json.Marshal's encoding of what encoding/json decodes them to,
// and decodes every line it accepts as encoding/json does; appendRecord
// writes json.Marshal's bytes for every Result decoded (see
// checkDecodeRecord).
func FuzzDecodeRecord(f *testing.F) {
	_, records, _ := fuzzSeeds(f)
	for _, r := range records {
		f.Add(r)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecodeRecord(t, line)
	})
}

// FuzzReadShard: ReadShard never panics on arbitrary bytes, and whatever
// it accepts passes Validate and re-encodes through NewStreamWriter and
// Append to exactly the bytes it read. The classic one-document seed is
// refused.
func FuzzReadShard(f *testing.F) {
	files, _, classic := fuzzSeeds(f)
	if _, err := ReadShard(bytes.NewReader(classic)); err == nil {
		f.Fatal("ReadShard accepted a classic one-document shard")
	}
	for _, b := range files {
		f.Add(b)
	}
	// A header whose range no record backs: reading it once sized a slice
	// by the claimed range, which panics (or exhausts memory) this large.
	f.Add([]byte(`{"stream":"emlrtm-fleet-shard","formatVersion":5,"config":{"seed":1},"total":1099511627776,"lo":0,"hi":1099511627776}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadShard(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ReadShard accepted a shard that fails Validate: %v", err)
		}
		if again := writeStream(t, s); !bytes.Equal(again, data) {
			t.Fatalf("ReadShard accepted bytes a stream writer does not write:%s", firstDiff(data, again))
		}
	})
}
