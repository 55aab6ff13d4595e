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
		if !decodeCanonical(line, &Result{}) {
			t.Errorf("golden record fell back to encoding/json: %s", line)
		}
	}
	if got, want := len(raw), 8391; got != want {
		t.Errorf("golden stream is %d bytes, want %d", got, want)
	}
	if got, want := values, 86; got != want {
		t.Errorf("golden stream encodes %d latency values, want %d", got, want)
	}
	if got, want := samples, 2235; got != want {
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
// refUnmarshal does. fast requires the line to take the canonical path
// rather than the encoding/json fallback.
func checkRecordCodec(t *testing.T, name string, r Result, fast bool) {
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
	if err := decodeRecord(append(got, '\n'), &dec); err != nil {
		t.Fatalf("%s: decodeRecord: %v", name, err)
	}
	ref, err := refUnmarshal(got)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(dec, ref) {
		t.Errorf("%s: decodeRecord gives %+v, json.Unmarshal %+v", name, dec, ref)
	}
	if fast && !decodeCanonical(got, &Result{}) {
		t.Errorf("%s: writer output fell back to encoding/json: %s", name, got)
	}
}

// TestRecordCodecCoversEveryField sets each exported Result field, by
// reflection, to a non-zero value, to zero and (for floats) to -0, alone
// and all together. A field added to Result without codec support fails
// here — either its kind has no test value below, or the bytes differ.
func TestRecordCodecCoversEveryField(t *testing.T) {
	rt := reflect.TypeOf(Result{})
	nonZero := func(f reflect.StructField) reflect.Value {
		switch f.Type.Kind() {
		case reflect.Int:
			return reflect.ValueOf(-12345).Convert(f.Type)
		case reflect.Uint64:
			return reflect.ValueOf(uint64(math.MaxUint64)).Convert(f.Type)
		case reflect.String:
			return reflect.ValueOf("value-" + f.Name).Convert(f.Type)
		case reflect.Float64:
			return reflect.ValueOf(0.1 + float64(f.Index[0])).Convert(f.Type)
		case reflect.Slice:
			if f.Type.Elem() == reflect.TypeFor[LatencyRun]() {
				return reflect.ValueOf([]LatencyRun{{1e-7, 2}, {0.25, 1}, {3, 4}})
			}
		}
		t.Fatalf("Result.%s has kind %s, which the codec test has no value for; extend appendRecord, decodeCanonical and this test", f.Name, f.Type)
		return reflect.Value{}
	}

	var all Result
	for i := range rt.NumField() {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		v := nonZero(f)
		reflect.ValueOf(&all).Elem().Field(i).Set(v)

		var alone Result
		reflect.ValueOf(&alone).Elem().Field(i).Set(v)
		if f.Name == "Latencies" {
			// A record holds one sample per completed job.
			alone.Completed = 7
		}
		checkRecordCodec(t, f.Name+" alone", alone, true)
		if f.Type.Kind() == reflect.Float64 {
			var negZero Result
			reflect.ValueOf(&negZero).Elem().Field(i).SetFloat(math.Copysign(0, -1))
			checkRecordCodec(t, f.Name+" -0", negZero, true)
		}
	}
	all.Completed = 7
	checkRecordCodec(t, "every field", all, true)
	checkRecordCodec(t, "zero", Result{}, true)
	all.Latencies = []LatencyRun{}
	checkRecordCodec(t, "empty latencies", all, true)
}

// TestRecordCodecSpecialValues covers the float formatting boundaries, the
// strings encoding/json escapes, and the floats it refuses.
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
		checkRecordCodec(t, "float "+formatG(f), r, true)
	}
	for name, runs := range map[string][]LatencyRun{
		"zero count":     {{0.1, 0}, {0.2, 3}},
		"negative count": {{0.1, -1}, {0.2, 4}},
	} {
		r := base
		r.Latencies = runs
		r.Completed = 3
		checkRecordCodec(t, name, r, false)
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
	for _, s := range []string{`"<&>` + "\n", "héllo ✓", "\xff\xfe", "tab\there", "line sep", `back\slash`, "\x7f", ""} {
		r := base
		r.Err = s
		r.Name = s
		checkRecordCodec(t, "string "+s, r, false)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := base
		r.P95LatencyS = f
		checkRecordCodec(t, "scalar "+formatG(f), r, false)
		r = base
		r.Latencies = []LatencyRun{{1, 1}, {f, 1}}
		r.Completed = 2
		checkRecordCodec(t, "latency "+formatG(f), r, false)
		if _, err := appendRecord(nil, &r); err == nil {
			t.Errorf("appendRecord accepted a %g latency", f)
		}
	}
}

func formatG(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// TestDecodeRecordMatchesJSON: lines off the canonical shape take the
// encoding/json fallback, and canonical lines with bad latency runs are
// refused, exactly as the encoding/json reference decodes or refuses them.
func TestDecodeRecordMatchesJSON(t *testing.T) {
	for _, line := range []string{
		`{"id":1,"name":"a","class":"steady","platform":"p","policy":"q","seed":2}`,
		` {"id":1}`,
		`{"id":1} `,
		`{"id":1}x`,
		`{"ID":1}`,
		`{"id":1.0}`,
		`{"id":1e2}`,
		`{"id":-0}`,
		`{"id":01}`,
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
	// A canonical line whose latency runs break a format rule, or keep it
	// in an unusual spelling.
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

// checkDecodeRecord requires decodeRecord to agree with refUnmarshal on
// line: the same acceptance and, when accepted, the same Result and the
// same re-encoding.
func checkDecodeRecord(t *testing.T, line []byte) {
	t.Helper()
	var got Result
	gotErr := decodeRecord(line, &got)
	want, wantErr := refUnmarshal(line)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: decodeRecord error %v, json.Unmarshal error %v", line, gotErr, wantErr)
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
	enc, encErr := appendRecord(nil, &got)
	ref, refErr := json.Marshal(want)
	if encErr != nil || refErr != nil || !bytes.Equal(enc, ref) {
		t.Fatalf("%q: re-encoding %s (%v), json.Marshal %s (%v)", line, enc, encErr, ref, refErr)
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
// breaking one format rule, plus a few the format accepts: the ways a
// hand-edited or corrupted line can go wrong.
func runVariants(completed int) []string {
	c := completed
	return []string{
		fmt.Sprintf(`[[0.01,%d]]`, c),                 // valid: one run
		fmt.Sprintf(`[[0.01,1.0],[0.02,%d]]`, c-1),    // valid: a count spelled as a float
		fmt.Sprintf(`[[0.02,1],[0.01,%d]]`, c-1),      // descending values
		fmt.Sprintf(`[[0.02,1.0],[0.01,%d]]`, c-1),    // descending values, left to the fallback
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
// more samples than its completed jobs fails on both decode paths, and
// nothing is sized by the counts. Expanding a million samples would take
// 8 MB.
func TestDecodeRecordAllocatesAtMostCompleted(t *testing.T) {
	line := bytes.SplitAfter(readGoldenStream(t), []byte("\n"))[1]
	for _, edited := range [][]byte{
		withLatencies(t, line, `[[0.01,1000000]]`), // canonical shape
		withLatencies(t, line, `[[0.01,1e6]]`),     // left to the fallback
	} {
		var r Result
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeRecord(edited, &r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("decodeRecord accepted %s", edited)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("refusing %s allocated %d bytes", edited, n)
		}
	}
}

// fuzzSeeds returns the golden stream's records, each also cut in two
// places, and shard files built from its first two records: a complete
// stream, its header, torn variants of both, and the same shard as a
// one-document JSON file (classic, also returned alone), which readers
// must refuse. Both sets also carry the first record with its latency
// runs edited by runVariants. Seeds stay a few kilobytes so the fuzzer can minimise what
// it finds.
func fuzzSeeds(t testing.TB) (files, records [][]byte, classic []byte) {
	raw := readGoldenStream(t)
	for _, line := range bytes.SplitAfter(raw, []byte("\n"))[1:] {
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
		records = append(records, edited)
		files = append(files, bytes.Join([][]byte{lines[0], edited, lines[2]}, nil))
	}
	return files, records, classic
}

// FuzzDecodeRecord: for any bytes, decodeRecord and the encoding/json
// reference agree on acceptance and on the Result, and an accepted Result
// re-encodes to the reference's bytes.
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
// it accepts passes Validate. The classic one-document seed is refused.
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
	f.Add([]byte(`{"stream":"emlrtm-fleet-shard","formatVersion":4,"config":{"seed":1},"total":1099511627776,"lo":0,"hi":1099511627776}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadShard(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ReadShard accepted a shard that fails Validate: %v", err)
		}
	})
}
