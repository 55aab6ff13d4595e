package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeStream encodes a shard as a result stream, returning the bytes.
func writeStream(t testing.TB, s ShardResult, nolat bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, StreamHeader{
		Config: s.Config, Total: s.Total, Lo: s.Lo, Hi: s.Hi, NoLatencies: nolat,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Results {
		if err := sw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if !sw.Complete() {
		t.Fatalf("stream incomplete after %d appends", len(s.Results))
	}
	return buf.Bytes()
}

// TestStreamRoundTrip: a complete stream converts losslessly back into the
// ShardResult it encodes through ReadShard, the merge path.
func TestStreamRoundTrip(t *testing.T) {
	cfg := GeneratorConfig{Seed: 5}
	want := fakeShard(cfg, 8, 2, 6)
	raw := writeStream(t, want, false)

	got, err := ReadShard(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("ReadShard round-trip differs:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
}

// TestStreamWriterRejects: the writer refuses records that do not belong
// to its header's run, out-of-order appends, and appends past the range.
func TestStreamWriterRejects(t *testing.T) {
	cfg := GeneratorConfig{Seed: 5}
	s := fakeShard(cfg, 8, 2, 6)

	if _, err := NewStreamWriter(io.Discard, StreamHeader{Config: cfg, Total: 8, Lo: 5, Hi: 3}); err == nil {
		t.Error("inverted range header accepted")
	}

	sw, err := NewStreamWriter(io.Discard, StreamHeader{Config: cfg, Total: 8, Lo: 2, Hi: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(s.Results[1]); err == nil || !strings.Contains(err.Error(), "scenario order") {
		t.Errorf("out-of-order append error = %v, want scenario-order complaint", err)
	}
	tampered := s.Results[0]
	tampered.Seed++
	if err := sw.Append(tampered); err == nil || !strings.Contains(err.Error(), "does not derive") {
		t.Errorf("tampered-seed append error = %v, want seed complaint", err)
	}
	for _, r := range s.Results {
		if err := sw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Append(s.Results[len(s.Results)-1]); err == nil || !strings.Contains(err.Error(), "complete") {
		t.Errorf("append past range error = %v, want completeness complaint", err)
	}
}

// TestStreamReaderFailLoud: garbled headers, foreign records, truncation
// and trailing garbage all surface as errors, never as a zero-valued or
// silently shortened shard.
func TestStreamReaderFailLoud(t *testing.T) {
	cfg := GeneratorConfig{Seed: 5}
	s := fakeShard(cfg, 8, 2, 6)
	raw := writeStream(t, s, false)
	lines := bytes.SplitAfter(raw, []byte("\n"))

	for _, hdr := range []string{"{\"stream\":\"wrong\"}\n", "not json\n"} {
		if _, err := NewStreamReader(strings.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "not a shard result stream") {
			t.Errorf("header %q error = %v, want not-a-stream complaint", hdr, err)
		}
	}

	// Headers that parse but describe no shard this build can merge: the
	// stream-path counterparts of TestShardValidate's header cases.
	withHeader := func(edit func(*StreamHeader)) []byte {
		hdr := StreamHeader{Stream: streamMagic, FormatVersion: ShardFormatVersion, Config: cfg, Total: 8, Lo: 2, Hi: 6}
		edit(&hdr)
		line, err := json.Marshal(hdr)
		if err != nil {
			t.Fatal(err)
		}
		return append(append(line, '\n'), bytes.Join(lines[1:], nil)...)
	}
	for _, tc := range []struct {
		name    string
		edit    func(*StreamHeader)
		wantErr string
	}{
		{"future format version", func(h *StreamHeader) { h.FormatVersion = ShardFormatVersion + 1 }, "format version"},
		{"range outside fleet", func(h *StreamHeader) { h.Hi = 9 }, "outside fleet"},
	} {
		if _, err := ReadShard(bytes.NewReader(withHeader(tc.edit))); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want it to mention %q", tc.name, err, tc.wantErr)
		}
	}

	// Truncated final record: the crash artifact a reader must name.
	trunc := raw[:len(raw)-3]
	if _, err := ReadShard(bytes.NewReader(trunc)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated record error = %v, want io.ErrUnexpectedEOF", err)
	}

	// A cleanly cut but incomplete stream converts only via resume.
	short := bytes.Join(lines[:3], nil) // header + 2 records
	if _, err := ReadShard(bytes.NewReader(short)); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("incomplete stream error = %v, want incompleteness complaint", err)
	}

	// A record from a different run (tampered seed) fails validation.
	var rec Result
	if err := json.Unmarshal(lines[1], &rec); err != nil {
		t.Fatal(err)
	}
	rec.Seed++
	bad, _ := json.Marshal(rec)
	corrupt := append(append([]byte{}, lines[0]...), append(bad, '\n')...)
	if _, err := ReadShard(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "does not derive") {
		t.Errorf("foreign record error = %v, want seed complaint", err)
	}

	// More records than the header's range declares.
	over := append(append([]byte{}, raw...), lines[len(lines)-2]...)
	if _, err := ReadShard(bytes.NewReader(over)); err == nil || !strings.Contains(err.Error(), "beyond its range") {
		t.Errorf("overlong stream error = %v, want beyond-range complaint", err)
	}
}

// TestResumeShardFromCrash is the crash-resume contract: a stream cut off
// mid-record (as a SIGKILL leaves it) resumes from the last intact
// scenario and produces a ShardResult identical to an uninterrupted run —
// and the finished file reads back as the same shard via ReadShardFile.
func TestResumeShardFromCrash(t *testing.T) {
	cfg := GeneratorConfig{Seed: 11, Platforms: []string{"odroid-xu3"}, Classes: []Class{ClassSteady}}
	const total = 6
	want, err := RunShard(cfg, total, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	path := filepath.Join(t.TempDir(), "shard.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewStreamWriter(f, StreamHeader{Config: cfg, Total: total, Lo: 0, Hi: total})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want.Results[:2] {
		if err := sw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// The torn tail of a record the OS flushed only partially.
	if _, err := f.WriteString(`{"id":2,"name":"stea`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := ResumeShard(path, cfg, total, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Error("resumed shard differs from uninterrupted run")
	}

	// The completed stream file itself must now read back as the shard.
	back, err := ReadShardFile(path)
	if err != nil {
		t.Fatal(err)
	}
	backJSON, _ := json.Marshal(back)
	if !bytes.Equal(wantJSON, backJSON) {
		t.Error("completed stream file differs from uninterrupted run")
	}

	// Resuming a complete stream is an idempotent no-op.
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ResumeShard(path, cfg, total, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	againJSON, _ := json.Marshal(again)
	if !bytes.Equal(wantJSON, againJSON) {
		t.Error("re-resume of a complete stream differs")
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() != after.Size() {
		t.Errorf("re-resume grew the file: %d -> %d bytes", before.Size(), after.Size())
	}

	// A fresh path runs the whole range and still matches.
	fresh, err := ResumeShard(filepath.Join(t.TempDir(), "fresh.ndjson"), cfg, total, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	freshJSON, _ := json.Marshal(fresh)
	if !bytes.Equal(wantJSON, freshJSON) {
		t.Error("fresh streamed shard differs from RunShard")
	}
}

// TestResumeShardEveryTruncationPrefix extends TestResumeShardFromCrash
// from a few cut points to all of them: for every byte-length prefix of a
// small valid stream — a kill can land on any byte — ResumeShard finishes
// with a file byte-identical to the uninterrupted stream and an equal
// ShardResult.
func TestResumeShardEveryTruncationPrefix(t *testing.T) {
	cfg := GeneratorConfig{Seed: 11, Platforms: []string{"odroid-xu3"}, Classes: []Class{ClassSteady}}
	const total = 2
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ndjson")
	want, err := ResumeShard(full, cfg, total, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if testing.Short() {
		step = 97
	}
	path := filepath.Join(dir, "cut.ndjson")
	for n := 0; n < len(raw); n += step {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ResumeShard(path, cfg, total, 0, 1, 1)
		if err != nil {
			t.Fatalf("prefix of %d bytes: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("prefix of %d bytes: resumed shard differs from the uninterrupted run", n)
		}
		back, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, raw) {
			t.Fatalf("prefix of %d bytes: resumed file differs from the uninterrupted stream:%s", n, firstDiff(raw, back))
		}
	}
}

// TestResumeShardRefusesForeignStreams: resume must never extend a stream
// belonging to a different run, range, latency mode — or a file that is
// not a stream at all.
func TestResumeShardRefusesForeignStreams(t *testing.T) {
	cfg := GeneratorConfig{Seed: 5}
	dir := t.TempDir()

	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	header := func(h StreamHeader) []byte {
		h.Stream = streamMagic
		h.FormatVersion = ShardFormatVersion
		b, _ := json.Marshal(h)
		return append(b, '\n')
	}

	cases := []struct {
		name    string
		path    string
		runner  Runner
		wantErr string
	}{
		{"different seed", write("seed.ndjson",
			header(StreamHeader{Config: GeneratorConfig{Seed: 6}, Total: 8, Lo: 0, Hi: 4})),
			Runner{}, "seed mismatch"},
		{"different range", write("range.ndjson",
			header(StreamHeader{Config: cfg, Total: 8, Lo: 4, Hi: 8})),
			Runner{}, "range mismatch"},
		{"different latency mode", write("nolat.ndjson",
			header(StreamHeader{Config: cfg, Total: 8, Lo: 0, Hi: 4, NoLatencies: true})),
			Runner{}, "latency mode"},
		{"not a stream", write("noise.txt", []byte("hello world\n")),
			Runner{}, "not a shard result stream"},
	}
	for _, tc := range cases {
		_, err := tc.runner.ResumeShard(tc.path, cfg, 8, 0, 2)
		if err == nil {
			t.Errorf("%s: resume accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
		if !strings.Contains(err.Error(), tc.path) {
			t.Errorf("%s: error %q does not name the file", tc.name, err)
		}
	}
}

// TestRunnerOnResultOrder: the completion callback must deliver every
// scenario exactly once, in index order, at any worker count — the seam
// the stream writer depends on.
func TestRunnerOnResultOrder(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{Seed: 3, Platforms: []string{"odroid-xu3"}, Classes: []Class{ClassSteady}})
	if err != nil {
		t.Fatal(err)
	}
	scens := gen.Generate(8)
	for _, workers := range []int{1, 3, 8} {
		var seen []int
		r := &Runner{Workers: workers, OnResult: func(i int, res Result) {
			if res.ID != scens[i].ID {
				t.Errorf("workers=%d: OnResult(%d) carries result ID %d, want %d", workers, i, res.ID, scens[i].ID)
			}
			seen = append(seen, i)
		}}
		r.Run(scens)
		if len(seen) != len(scens) {
			t.Fatalf("workers=%d: %d callbacks, want %d", workers, len(seen), len(scens))
		}
		for i, idx := range seen {
			if idx != i {
				t.Fatalf("workers=%d: delivery order %v not ascending", workers, seen)
			}
		}
	}
}

// syncCounter is an in-memory stream target with an fsync-shaped Sync
// method, counting calls.
type syncCounter struct {
	bytes.Buffer
	syncs int
}

func (w *syncCounter) Sync() error { w.syncs++; return nil }

// TestStreamWriterSyncEvery: SetSyncEvery fsyncs the underlying writer
// every n records — and only then; the default never syncs, and a writer
// without a Sync method is a silent no-op.
func TestStreamWriterSyncEvery(t *testing.T) {
	cfg := GeneratorConfig{Seed: 5}
	s := fakeShard(cfg, 8, 2, 6) // 4 records

	newWriter := func(w io.Writer) *StreamWriter {
		t.Helper()
		sw, err := NewStreamWriter(w, StreamHeader{Config: cfg, Total: s.Total, Lo: s.Lo, Hi: s.Hi})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	appendAll := func(sw *StreamWriter) {
		t.Helper()
		for _, r := range s.Results {
			if err := sw.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Default: the header and 4 records trigger zero syncs.
	w := &syncCounter{}
	appendAll(newWriter(w))
	if w.syncs != 0 {
		t.Errorf("default writer synced %d times, want 0", w.syncs)
	}

	// Every 2 records: 4 appends = 2 syncs.
	w = &syncCounter{}
	sw := newWriter(w)
	sw.SetSyncEvery(2)
	appendAll(sw)
	if w.syncs != 2 {
		t.Errorf("SyncEvery(2) synced %d times over 4 records, want 2", w.syncs)
	}

	// Every 3 records: syncs at record 3; records 4 leaves one pending.
	w = &syncCounter{}
	sw = newWriter(w)
	sw.SetSyncEvery(3)
	appendAll(sw)
	if w.syncs != 1 {
		t.Errorf("SyncEvery(3) synced %d times over 4 records, want 1", w.syncs)
	}

	// A writer with no Sync method must not break.
	var buf bytes.Buffer
	sw = newWriter(&buf)
	sw.SetSyncEvery(1)
	appendAll(sw)
	if !sw.Complete() {
		t.Error("stream incomplete on a sync-less writer")
	}
}
