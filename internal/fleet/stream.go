package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
)

// A shard result stream is the on-disk encoding of a ShardResult: one
// NDJSON header line followed by one line per completed scenario, in
// ascending scenario-index order, each flushed as it completes. A process
// killed at any point leaves a prefix of the stream on disk; ResumeShard
// replays that prefix and re-runs only the missing range. A complete
// stream converts losslessly into a ShardResult (ReadShard), so Merge and
// the golden report are untouched by how a shard was produced — in one
// go, crashed-and-resumed, or retried.
//
// The header line is encoded by encoding/json. Record lines go through the
// hand-written codec in record.go: appendRecord writes the bytes
// json.Marshal would, and decodeRecord parses that shape directly, falling
// back to json.Unmarshal for any other line, so the bytes on disk and the
// set of accepted lines are encoding/json's.

// streamMagic identifies a shard result stream: the value of the header's
// first JSON key.
const streamMagic = "emlrtm-fleet-shard"

// StreamHeader is the first line of a shard result stream, and the header
// of the ShardResult it converts to: everything a resuming or merging
// process needs to prove the records that follow belong to the run it was
// asked for.
type StreamHeader struct {
	FormatVersion int             `json:"formatVersion"`
	Config        GeneratorConfig `json:"config"`
	Total         int             `json:"total"`
	Lo            int             `json:"lo"`
	Hi            int             `json:"hi"` // exclusive
}

// headerLine is a StreamHeader as the first line of a stream spells it:
// behind a "stream" marker, which a one-document ShardResult lacks.
type headerLine struct {
	Stream string `json:"stream"`
	StreamHeader
}

// check holds the header checks a shard and a shard stream share —
// format version, fleet size and range — and resolves the policy sweep
// the records are validated against.
func (h StreamHeader) check() ([]string, error) {
	if h.FormatVersion != ShardFormatVersion {
		return nil, fmt.Errorf("fleet: shard format version %d, want %d", h.FormatVersion, ShardFormatVersion)
	}
	if h.Total <= 0 {
		return nil, fmt.Errorf("fleet: shard total %d must be positive", h.Total)
	}
	if h.Lo < 0 || h.Hi < h.Lo || h.Hi > h.Total {
		return nil, fmt.Errorf("fleet: shard range [%d,%d) outside fleet [0,%d)", h.Lo, h.Hi, h.Total)
	}
	return resolvePolicies(h.Config.Policies)
}

// sameFleet reports how o's fleet differs from h's — master seed,
// normalized generator config or fleet size — or nil when both describe
// the same fleet. Merge requires it of every shard against the first, and
// resume of a stream file's header against the run's.
func (h StreamHeader) sameFleet(o StreamHeader) error {
	switch {
	case h.Config.Seed != o.Config.Seed:
		return fmt.Errorf("seed mismatch: %d vs %d", h.Config.Seed, o.Config.Seed)
	case !reflect.DeepEqual(h.Config.normalized(), o.Config.normalized()):
		return fmt.Errorf("config mismatch: %+v vs %+v", h.Config, o.Config)
	case h.Total != o.Total:
		return fmt.Errorf("fleet-size mismatch: %d vs %d runs", h.Total, o.Total)
	}
	return nil
}

// StreamWriter appends completed results to a shard stream as NDJSON, one
// flushed line per record, in scenario-index order. It validates every
// record against the header the way shard readers do, so a stream can only
// ever contain records of the run its header declares.
//
// Crash model: every record is flushed through the bufio layer to the
// underlying writer before Append returns, so a *process* death (SIGKILL,
// panic, OOM kill) loses at most the partially written final line, which
// resume discards. Flushing does NOT fsync: on a whole-machine power loss
// the OS page cache can drop any number of "flushed" trailing records (the
// file simply ends earlier — resume re-runs them, so no corruption, just
// lost work). Callers who need bounded data loss across power failure set
// SetSyncEvery, which fsyncs the underlying file every n records.
type StreamWriter struct {
	w    *bufio.Writer
	hdr  StreamHeader
	pols []string
	next int
	err  error  // sticky: after a write error the stream is poisoned
	line []byte // reused record encoding buffer

	sync      func() error // fsync of the underlying file, if it has one
	syncEvery int          // fsync cadence in records; 0 = never
	sinceSync int
}

// SetSyncEvery makes the writer fsync the underlying file after every n
// appended records (0, the default, never fsyncs — see the crash model
// above). It is a no-op when the underlying writer has no Sync method
// (e.g. a pipe or an in-memory buffer). Each fsync bounds power-loss data
// loss to the last n records at a real durability cost per sync; leave it
// off unless re-running lost scenarios after a power failure is more
// expensive than fsyncing through the run.
func (sw *StreamWriter) SetSyncEvery(n int) { sw.syncEvery = n }

// NewStreamWriter writes the header line to w and returns a writer
// expecting records hdr.Lo, hdr.Lo+1, … in order. FormatVersion is filled
// in; the caller provides the run identity (Config, Total, Lo, Hi).
func NewStreamWriter(w io.Writer, hdr StreamHeader) (*StreamWriter, error) {
	hdr.FormatVersion = ShardFormatVersion
	pols, err := hdr.check()
	if err != nil {
		return nil, err
	}
	sw := newStreamWriterAt(w, hdr, pols, hdr.Lo)
	line, err := json.Marshal(headerLine{streamMagic, hdr})
	if err != nil {
		return nil, err
	}
	if _, err := sw.w.Write(append(line, '\n')); err != nil {
		return nil, err
	}
	if err := sw.w.Flush(); err != nil {
		return nil, err
	}
	return sw, nil
}

// newStreamWriterAt builds a writer for a stream whose header (and next-lo
// records) are already on disk — the resume path. pols is the policy
// sweep hdr.check resolved.
func newStreamWriterAt(w io.Writer, hdr StreamHeader, pols []string, next int) *StreamWriter {
	sw := &StreamWriter{w: bufio.NewWriter(w), hdr: hdr, pols: pols, next: next}
	if s, ok := w.(interface{ Sync() error }); ok {
		sw.sync = s.Sync
	}
	return sw
}

// Append writes one completed result and flushes it to the underlying
// writer, so the record survives the process being killed immediately
// after. Records must arrive in scenario-index order (Runner.OnResult
// delivers exactly that) and must belong to the header's run.
func (sw *StreamWriter) Append(r Result) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.next >= sw.hdr.Hi {
		return fmt.Errorf("fleet: stream [%d,%d) is complete; cannot append scenario %d", sw.hdr.Lo, sw.hdr.Hi, r.ID)
	}
	if r.ID != sw.next {
		return fmt.Errorf("fleet: stream expects scenario %d next, got %d (records must be appended in scenario order)", sw.next, r.ID)
	}
	if err := validateResultAt(sw.hdr.Config.Seed, sw.pols, r, sw.next); err != nil {
		return err
	}
	line, err := appendRecord(sw.line[:0], &r)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	sw.line = line
	if _, err := sw.w.Write(line); err != nil {
		sw.err = err
		return err
	}
	if err := sw.w.Flush(); err != nil {
		sw.err = err
		return err
	}
	if sw.syncEvery > 0 && sw.sync != nil {
		if sw.sinceSync++; sw.sinceSync >= sw.syncEvery {
			if err := sw.sync(); err != nil {
				sw.err = err
				return err
			}
			sw.sinceSync = 0
		}
	}
	sw.next++
	return nil
}

// Next returns the scenario index the writer expects to append next.
func (sw *StreamWriter) Next() int { return sw.next }

// Complete reports whether every record in the header's range has been
// appended.
func (sw *StreamWriter) Complete() bool { return sw.next == sw.hdr.Hi }

// StreamReader reads a shard result stream record by record, validating
// each against the header exactly as ShardResult.Validate would. It is the
// one decoder of stream bytes: ReadShard reads whole streams through it,
// and ResumeShard replays a crashed prefix through it.
type StreamReader struct {
	br   *bufio.Reader
	hdr  StreamHeader
	pols []string
	next int
	line []byte // reused line buffer

	offset int64 // byte offset just past the header or the last intact record
	torn   bool  // Read stopped at a line cut short or one that does not decode
}

// NewStreamReader reads and validates the header line. A first line that
// is not a stream header, such as the opening of a one-document
// ShardResult, fails as "not a shard result stream". An empty input, or a
// header cut short before its newline, fails wrapping io.EOF.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("fleet: reading stream header: %w", err)
	}
	// A key the header does not define is refused, not ignored: it would
	// otherwise be carried through resume and merge as if it were absent.
	var hl headerLine
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hl); err != nil {
		return nil, fmt.Errorf("fleet: not a shard result stream (header: %v)", err)
	}
	if rest := bytes.TrimSpace(line[dec.InputOffset():]); len(rest) > 0 {
		return nil, fmt.Errorf("fleet: not a shard result stream (header followed by %q)", rest)
	}
	if hl.Stream != streamMagic {
		return nil, fmt.Errorf("fleet: not a shard result stream (header marker %q, want %q)", hl.Stream, streamMagic)
	}
	pols, err := hl.check()
	if err != nil {
		return nil, err
	}
	return &StreamReader{br: br, hdr: hl.StreamHeader, pols: pols, next: hl.Lo, offset: int64(len(line))}, nil
}

// Read returns the next record. It fails loud on a record that does not
// belong to the header's run, on trailing records beyond the range, and on
// a torn line: a final line cut short (io.ErrUnexpectedEOF, the crash
// point of a killed writer) or a line that does not decode. A line is
// decoded before the range is checked, so a torn line is reported as torn
// wherever it falls. io.EOF means the stream ended cleanly at a record
// boundary; the caller decides whether the prefix read so far is complete.
func (sr *StreamReader) Read() (Result, error) {
	line, err := readLine(sr.br, sr.line)
	sr.line = line
	if errors.Is(err, io.EOF) {
		if len(line) == 0 {
			return Result{}, io.EOF
		}
		sr.torn = true
		return Result{}, fmt.Errorf("fleet: stream record %d truncated mid-line: %w", sr.next, io.ErrUnexpectedEOF)
	}
	if err != nil {
		return Result{}, fmt.Errorf("fleet: reading stream record %d: %w", sr.next, err)
	}
	var r Result
	if err := decodeRecord(line, &r); err != nil {
		sr.torn = true
		return Result{}, fmt.Errorf("fleet: decoding stream record %d: %w", sr.next, err)
	}
	if sr.next >= sr.hdr.Hi {
		return Result{}, fmt.Errorf("fleet: stream [%d,%d) carries records beyond its range", sr.hdr.Lo, sr.hdr.Hi)
	}
	if err := validateResultAt(sr.hdr.Config.Seed, sr.pols, r, sr.next); err != nil {
		return Result{}, err
	}
	sr.next++
	sr.offset += int64(len(line))
	return r, nil
}

// readLine reads the next line of br, newline included, into buf — the
// contract of ReadBytes without a fresh allocation per line. Decoded records
// copy what they keep, so the buffer is reused for the next line.
func readLine(br *bufio.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if err != bufio.ErrBufferFull {
			return buf, err
		}
	}
}

// readAll reads the remaining records and converts the stream into the
// equivalent ShardResult. An incomplete stream — fewer records than the
// header's range — is an error; resume it with ResumeShard instead. The
// header and every record were checked as they were read, so only the
// record count is left to check.
func (sr *StreamReader) readAll() (ShardResult, error) {
	// The header's range is only a claim until the records arrive: cap the
	// preallocation so a forged range cannot demand a huge slice up front.
	results := make([]Result, 0, min(sr.hdr.Hi-sr.hdr.Lo, 1024))
	for {
		r, err := sr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return ShardResult{}, err
		}
		results = append(results, r)
	}
	if len(results) != sr.hdr.Hi-sr.hdr.Lo {
		return ShardResult{}, fmt.Errorf("fleet: stream incomplete: has %d of %d results (scenarios [%d,%d) of [%d,%d) missing); resume it with ResumeShard or fleetsim -resume",
			len(results), sr.hdr.Hi-sr.hdr.Lo, sr.hdr.Lo+len(results), sr.hdr.Hi, sr.hdr.Lo, sr.hdr.Hi)
	}
	return ShardResult{StreamHeader: sr.hdr, Results: results}, nil
}

// ResumeShard runs one shard of a fleet into a stream file: results
// stream to path as NDJSON, flushed per scenario, so a process killed at
// scenario k of its range restarts from k+1 — not from scratch. A missing
// or empty path starts a fresh stream; an existing one must carry a header
// matching the requested run (same seed, config, range and format
// version) and is replayed, validated record by record, before the
// missing suffix is generated and run. A torn line — the usual
// kill-mid-write artifact — and everything after it is discarded and
// rewritten. The returned ShardResult is identical to the same range of a
// single-process Run, which is what keeps the merged report byte-identical
// no matter how many times a shard crashed on the way. Errors about the
// stream name path. A stream carries every latency, so a runner with
// DropLatencies is refused before path is touched.
func (r *Runner) ResumeShard(path string, cfg GeneratorConfig, total, index, count int) (ShardResult, error) {
	if r.DropLatencies {
		return ShardResult{}, errors.New("fleet: a shard stream carries every latency; ResumeShard cannot run with DropLatencies")
	}
	gen, s, err := newShard(cfg, total, index, count)
	if err != nil {
		return ShardResult{}, err
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return ShardResult{}, err
	}
	defer f.Close()
	if s.Results, err = r.resume(f, gen, s.StreamHeader); err != nil {
		return ShardResult{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return ShardResult{}, fmt.Errorf("%s: resumed shard failed validation: %w", path, err)
	}
	return s, nil
}

// resume replays f's intact prefix, truncates whatever follows it, and
// runs and appends the rest of want's range, returning every result of
// the range in order.
func (r *Runner) resume(f *os.File, gen *Generator, want StreamHeader) ([]Result, error) {
	sr, results, err := replayStream(f, want)
	if err != nil {
		return nil, err
	}
	// Drop any torn tail and position the writer at the end of the last
	// intact record, or at 0 for a fresh file or a torn header.
	var offset int64
	if sr != nil {
		offset = sr.offset
	}
	if err := f.Truncate(offset); err != nil {
		return nil, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return nil, err
	}
	var sw *StreamWriter
	if sr == nil {
		if sw, err = NewStreamWriter(f, want); err != nil {
			return nil, err
		}
	} else {
		sw = newStreamWriterAt(f, want, sr.pols, sr.next)
	}
	sw.SetSyncEvery(r.SyncEvery)

	if next := sw.Next(); next < want.Hi {
		// Copy the runner so the stream hook does not clobber a caller's
		// own callback wiring; OnResult delivery is already serialized and
		// index-ordered, which is exactly the order the stream needs.
		rr := *r
		var streamErr error
		rr.OnResult = func(_ int, res Result) {
			if streamErr == nil {
				streamErr = sw.Append(res)
			}
		}
		fresh := rr.Run(gen.GenerateRange(next, want.Hi))
		if streamErr != nil {
			return nil, streamErr
		}
		results = append(results, fresh...)
	}
	return results, f.Sync()
}

// replayStream reads an existing stream file from the start through a
// StreamReader, returning the reader, stopped just past the last intact
// record, and the records it read. Replay stops at a clean end or at a
// torn line, which marks the crash point: the caller truncates there. An
// empty file, or one whose header line itself was torn mid-write, returns
// a nil reader: nothing in it is trustworthy, so the shard restarts from
// offset 0. A file that is not a stream, or whose header does not match
// the requested run, is a hard error: the caller pointed resume at the
// wrong file, and extending it would corrupt someone else's shard.
func replayStream(f *os.File, want StreamHeader) (*StreamReader, []Result, error) {
	sr, err := NewStreamReader(f)
	if errors.Is(err, io.EOF) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w; resume refuses to overwrite the file", err)
	}
	if err := sr.hdr.sameFleet(want); err != nil {
		return nil, nil, fmt.Errorf("fleet: stream does not match the run (file vs run): %w", err)
	}
	if sr.hdr.Lo != want.Lo || sr.hdr.Hi != want.Hi {
		return nil, nil, fmt.Errorf("fleet: stream range mismatch: file covers [%d,%d), run wants [%d,%d)", sr.hdr.Lo, sr.hdr.Hi, want.Lo, want.Hi)
	}
	var results []Result
	for {
		r, err := sr.Read()
		if errors.Is(err, io.EOF) || sr.torn {
			return sr, results, nil
		}
		if err != nil {
			return nil, nil, err
		}
		results = append(results, r)
	}
}
