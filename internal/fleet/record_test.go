package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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

// jsonDecodeStream decodes a stream with encoding/json alone: the
// reference ReadShard must agree with.
func jsonDecodeStream(t *testing.T, raw []byte) ShardResult {
	t.Helper()
	lines := bytes.SplitAfter(raw, []byte("\n"))
	var hdr StreamHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatal(err)
	}
	s := ShardResult{FormatVersion: hdr.FormatVersion, Config: hdr.Config, Total: hdr.Total, Lo: hdr.Lo, Hi: hdr.Hi, Results: []Result{}}
	for _, line := range lines[1:] {
		if len(line) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		s.Results = append(s.Results, r)
	}
	return s
}

// TestGoldenStream: the stream bytes are those encoding/json writes for the
// golden fleet. A fresh ResumeShard and a StreamWriter re-encoding the
// decoded records both reproduce the file byte for byte, and ReadShard
// decodes it to what encoding/json decodes. Regenerate after a deliberate
// behaviour change with
//
//	go test ./internal/fleet -run TestGoldenStream -update
//
// which rewrites the file from a fresh ResumeShard, every record line
// re-encoded by json.Marshal, and then runs the comparisons against it.
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

	if again := writeStream(t, got, false); !bytes.Equal(again, raw) {
		t.Errorf("StreamWriter re-encoding differs from the golden stream:%s", firstDiff(raw, again))
	}

	path := filepath.Join(t.TempDir(), "golden.ndjson")
	if _, err := ResumeShard(path, goldenStreamConfig, goldenStreamTotal, 0, 1, 1); err != nil {
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

// writeGoldenStream rewrites the golden stream: the header line as
// ResumeShard wrote it (encoding/json encodes headers), then each record as
// json.Marshal encodes it, so the file pins the hand-written codec to
// encoding/json rather than to itself.
func writeGoldenStream(t *testing.T) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.ndjson")
	if _, err := ResumeShard(path, goldenStreamConfig, goldenStreamTotal, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := bytes.Cut(fresh, []byte("\n"))
	out := append(header, '\n')
	for _, r := range jsonDecodeStream(t, fresh).Results {
		line, err := json.Marshal(&r)
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

// checkRecordCodec requires appendRecord to emit json.Marshal's bytes (or
// its error) for r, and decodeRecord to decode those bytes to what
// json.Unmarshal decodes. fast requires the line to take the canonical
// path rather than the encoding/json fallback.
func checkRecordCodec(t *testing.T, name string, r Result, fast bool) {
	t.Helper()
	want, wantErr := json.Marshal(&r)
	got, gotErr := appendRecord(nil, &r)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: appendRecord error %v, json.Marshal error %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: appendRecord error %q, json.Marshal error %q", name, gotErr, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: appendRecord differs from json.Marshal:\n got %s\nwant %s", name, got, want)
	}
	var dec, ref Result
	if err := decodeRecord(append(got, '\n'), &dec); err != nil {
		t.Fatalf("%s: decodeRecord: %v", name, err)
	}
	if err := json.Unmarshal(got, &ref); err != nil {
		t.Fatal(err)
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
			if f.Type.Elem().Kind() == reflect.Float64 {
				return reflect.ValueOf([]float64{0.25, 1e-7, 3})
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
		checkRecordCodec(t, f.Name+" alone", alone, true)
		if f.Type.Kind() == reflect.Float64 {
			var negZero Result
			reflect.ValueOf(&negZero).Elem().Field(i).SetFloat(math.Copysign(0, -1))
			checkRecordCodec(t, f.Name+" -0", negZero, true)
		}
	}
	checkRecordCodec(t, "every field", all, true)
	checkRecordCodec(t, "zero", Result{}, true)
	all.Latencies = []float64{}
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
		r.Latencies = []float64{f, 1, f}
		checkRecordCodec(t, "float "+formatG(f), r, true)
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
		r.Latencies = []float64{1, f}
		checkRecordCodec(t, "latency "+formatG(f), r, false)
		if _, err := appendRecord(nil, &r); err == nil {
			t.Errorf("appendRecord accepted a %g latency", f)
		}
	}
}

func formatG(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// TestDecodeRecordMatchesJSON: lines off the canonical shape take the
// encoding/json fallback and so decode — or fail — exactly as
// json.Unmarshal does.
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
}

// checkDecodeRecord requires decodeRecord to agree with json.Unmarshal on
// line: the same acceptance, the same Result and, when accepted, the same
// re-encoding.
func checkDecodeRecord(t *testing.T, line []byte) {
	t.Helper()
	var got, want Result
	gotErr := decodeRecord(line, &got)
	wantErr := json.Unmarshal(line, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: decodeRecord error %v, json.Unmarshal error %v", line, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decodeRecord gives %+v, json.Unmarshal %+v", line, got, want)
	}
	if gotErr != nil {
		return
	}
	enc, encErr := appendRecord(nil, &got)
	ref, refErr := json.Marshal(&want)
	if encErr != nil || refErr != nil || !bytes.Equal(enc, ref) {
		t.Fatalf("%q: re-encoding %s (%v), json.Marshal %s (%v)", line, enc, encErr, ref, refErr)
	}
}

// fuzzSeeds returns the golden stream's records, each also cut in two
// places, and shard files built from its first two records: a complete
// stream, its header, torn variants of both, and the same shard as a
// one-document JSON file (classic, also returned alone), which readers
// must refuse. Seeds stay a few kilobytes so the fuzzer can minimise what
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
	stream := writeStream(t, s, false)
	classic = classicShardDoc(t, s)
	header, _, _ := bytes.Cut(stream, []byte("\n"))
	files = [][]byte{stream, stream[:len(stream)-7], header, header[:len(header)/2], classic, classic[:len(classic)/2]}
	return files, records, classic
}

// FuzzDecodeRecord: for any bytes, decodeRecord and json.Unmarshal agree
// on acceptance and on the Result, and an accepted Result re-encodes to
// json.Marshal's bytes.
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
	f.Add([]byte(`{"stream":"emlrtm-fleet-shard","formatVersion":2,"config":{"seed":1},"total":1099511627776,"lo":0,"hi":1099511627776}` + "\n"))
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

// TestStreamAppendAllocs pins the writer's steady state: once its line
// buffer has grown to a record's size, Append allocates nothing.
func TestStreamAppendAllocs(t *testing.T) {
	sw, recs := benchStreamWriter(t, io.Discard, 1<<40)
	allocs := testing.AllocsPerRun(100, func() {
		if err := sw.Append(recs.at(sw.Next())); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("StreamWriter.Append allocates %v per record, want 0", allocs)
	}
}

// benchRecords produces valid records for an open-ended single-policy
// stream: the golden record with the most latency samples, relabelled with
// each scenario's ID and seed, so every line has nearly the same length.
type benchRecords struct {
	cfg GeneratorConfig
	r   Result
}

func newBenchRecords(t testing.TB) *benchRecords {
	t.Helper()
	golden, err := ReadShard(bytes.NewReader(readGoldenStream(t)))
	if err != nil {
		t.Fatal(err)
	}
	recs := &benchRecords{cfg: golden.Config}
	for _, r := range golden.Results {
		if len(r.Latencies) > len(recs.r.Latencies) {
			recs.r = r
		}
	}
	return recs
}

func (b *benchRecords) at(id int) Result {
	r := b.r
	r.ID = id
	r.Seed = scenarioSeed(b.cfg.Seed, id)
	return r
}

// benchStreamLo starts the benchmark streams at a ten-digit scenario
// index, so every record's encoding has the same ID width.
const benchStreamLo = 1_000_000_000

// benchStreamWriter returns a writer over w for records [benchStreamLo,
// hi), warmed by appending the first, and its record source.
func benchStreamWriter(t testing.TB, w io.Writer, hi int) (*StreamWriter, *benchRecords) {
	t.Helper()
	recs := newBenchRecords(t)
	sw, err := NewStreamWriter(w, StreamHeader{Config: recs.cfg, Total: 1 << 40, Lo: benchStreamLo, Hi: hi})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(recs.at(sw.Next())); err != nil {
		t.Fatal(err)
	}
	return sw, recs
}

// BenchmarkStreamAppend measures encoding and flushing one record with
// its latencies; the op is one Append.
func BenchmarkStreamAppend(b *testing.B) {
	sw, recs := benchStreamWriter(b, io.Discard, 1<<40)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := sw.Append(recs.at(sw.Next())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamRead measures reading, decoding and validating one
// record; the op is one Read. A drained reader is replaced with the timer
// stopped, and its first record read there, so every timed Read is a
// steady-state one.
func BenchmarkStreamRead(b *testing.B) {
	var buf bytes.Buffer
	sw, recs := benchStreamWriter(b, &buf, benchStreamLo+64)
	for !sw.Complete() {
		if err := sw.Append(recs.at(sw.Next())); err != nil {
			b.Fatal(err)
		}
	}
	open := func() *StreamReader {
		sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sr.Read(); err != nil {
			b.Fatal(err)
		}
		return sr
	}
	sr := open()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		_, err := sr.Read()
		if err == io.EOF {
			b.StopTimer()
			sr = open()
			b.StartTimer()
			_, err = sr.Read()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
