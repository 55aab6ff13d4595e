package fleet

import (
	"bufio"
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

// StreamHeader is the first line of a shard result stream: everything a
// resuming or merging process needs to prove the records that follow
// belong to the run it was asked for. It mirrors the ShardResult header,
// plus the latency-dropping mode, which changes record bytes and so must
// match between the crashed and the resuming run.
type StreamHeader struct {
	Stream        string          `json:"stream"`
	FormatVersion int             `json:"formatVersion"`
	Config        GeneratorConfig `json:"config"`
	Total         int             `json:"total"`
	Lo            int             `json:"lo"`
	Hi            int             `json:"hi"` // exclusive
	NoLatencies   bool            `json:"noLatencies,omitempty"`
}

// validate checks internal consistency, mirroring ShardResult.Validate's
// header checks.
func (h StreamHeader) validate() error {
	if h.Stream != streamMagic {
		return fmt.Errorf("fleet: not a shard result stream (header marker %q, want %q)", h.Stream, streamMagic)
	}
	if h.FormatVersion != ShardFormatVersion {
		return fmt.Errorf("fleet: stream format version %d, want %d", h.FormatVersion, ShardFormatVersion)
	}
	if h.Total <= 0 {
		return fmt.Errorf("fleet: stream total %d must be positive", h.Total)
	}
	if h.Lo < 0 || h.Hi < h.Lo || h.Hi > h.Total {
		return fmt.Errorf("fleet: stream range [%d,%d) outside fleet [0,%d)", h.Lo, h.Hi, h.Total)
	}
	if _, err := resolvePolicies(h.Config.Policies); err != nil {
		return err
	}
	return nil
}

// matches reports whether two headers describe the same shard of the same
// run, using the same normalized-config comparison Merge applies across
// shards. It is the resume gate: a stream written under a different seed,
// config, range or latency mode must not be extended.
func (h StreamHeader) matches(want StreamHeader) error {
	switch {
	case h.FormatVersion != want.FormatVersion:
		return fmt.Errorf("fleet: stream format version %d, want %d", h.FormatVersion, want.FormatVersion)
	case h.Config.Seed != want.Config.Seed:
		return fmt.Errorf("fleet: stream seed mismatch: file has %d, run wants %d", h.Config.Seed, want.Config.Seed)
	case h.Total != want.Total || h.Lo != want.Lo || h.Hi != want.Hi:
		return fmt.Errorf("fleet: stream range mismatch: file covers [%d,%d) of %d, run wants [%d,%d) of %d",
			h.Lo, h.Hi, h.Total, want.Lo, want.Hi, want.Total)
	case h.NoLatencies != want.NoLatencies:
		return fmt.Errorf("fleet: stream latency mode mismatch: file noLatencies=%v, run wants %v (resume with the same -nolat setting)", h.NoLatencies, want.NoLatencies)
	case !reflect.DeepEqual(h.Config.normalized(), want.Config.normalized()):
		return fmt.Errorf("fleet: stream config mismatch: file was written with %+v, run wants %+v", h.Config, want.Config)
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
// expecting records hdr.Lo, hdr.Lo+1, … in order. The Stream marker and
// FormatVersion fields are filled in; the caller provides the run
// identity (Config, Total, Lo, Hi, NoLatencies).
func NewStreamWriter(w io.Writer, hdr StreamHeader) (*StreamWriter, error) {
	hdr.Stream = streamMagic
	hdr.FormatVersion = ShardFormatVersion
	if err := hdr.validate(); err != nil {
		return nil, err
	}
	sw := newStreamWriterAt(w, hdr, hdr.Lo)
	line, err := json.Marshal(hdr)
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
// records) are already on disk — the resume path. hdr must already be
// validated.
func newStreamWriterAt(w io.Writer, hdr StreamHeader, next int) *StreamWriter {
	pols, _ := resolvePolicies(hdr.Config.Policies) // validated with hdr
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
// each against the header exactly as ShardResult.Validate would.
type StreamReader struct {
	br   *bufio.Reader
	hdr  StreamHeader
	pols []string
	next int
	line []byte // reused line buffer
}

// NewStreamReader reads and validates the header line. A first line that
// is not a stream header, such as the opening of a one-document
// ShardResult, fails as "not a shard result stream".
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("fleet: reading stream header: %w", err)
	}
	var hdr StreamHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("fleet: not a shard result stream (header: %v)", err)
	}
	if err := hdr.validate(); err != nil {
		return nil, err
	}
	pols, _ := resolvePolicies(hdr.Config.Policies) // validated with hdr
	return &StreamReader{br: br, hdr: hdr, pols: pols, next: hdr.Lo}, nil
}

// Header returns the validated stream header.
func (sr *StreamReader) Header() StreamHeader { return sr.hdr }

// Read returns the next record. It fails loud on a record that does not
// belong to the header's run, on trailing records beyond the range, and on
// a truncated final line (io.ErrUnexpectedEOF — the crash point of a
// killed writer). io.EOF means the stream ended cleanly at a record
// boundary; the caller decides whether the prefix read so far is complete.
func (sr *StreamReader) Read() (Result, error) {
	line, err := readLine(sr.br, sr.line)
	sr.line = line
	if errors.Is(err, io.EOF) {
		if len(line) == 0 {
			return Result{}, io.EOF
		}
		return Result{}, fmt.Errorf("fleet: stream record %d truncated mid-line: %w", sr.next, io.ErrUnexpectedEOF)
	}
	if err != nil {
		return Result{}, fmt.Errorf("fleet: reading stream record %d: %w", sr.next, err)
	}
	if sr.next >= sr.hdr.Hi {
		return Result{}, fmt.Errorf("fleet: stream [%d,%d) carries records beyond its range", sr.hdr.Lo, sr.hdr.Hi)
	}
	var r Result
	if err := decodeRecord(line, &r); err != nil {
		return Result{}, fmt.Errorf("fleet: decoding stream record %d: %w", sr.next, err)
	}
	if err := validateResultAt(sr.hdr.Config.Seed, sr.pols, r, sr.next); err != nil {
		return Result{}, err
	}
	sr.next++
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
// header's range — is an error; resume it with ResumeShard instead.
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
	s := ShardResult{
		FormatVersion: sr.hdr.FormatVersion,
		Config:        sr.hdr.Config,
		Total:         sr.hdr.Total,
		Lo:            sr.hdr.Lo,
		Hi:            sr.hdr.Hi,
		Results:       results,
	}
	if err := s.Validate(); err != nil {
		return ShardResult{}, err
	}
	return s, nil
}

// ResumeShard runs shard index (0-based) of count over a total-workload
// fleet, streaming each completed result to path, resuming from whatever a
// previous (possibly killed) process already flushed there. See
// Runner.ResumeShard.
func ResumeShard(path string, cfg GeneratorConfig, total, index, count, workers int) (ShardResult, error) {
	return (&Runner{Workers: workers}).ResumeShard(path, cfg, total, index, count)
}

// ResumeShard is the persistent counterpart of RunShard: results
// stream to path as NDJSON, flushed per scenario, so a process killed at
// scenario k of its range restarts from k+1 — not from scratch. A missing
// or empty path starts a fresh stream; an existing one must carry a header
// matching the requested run (same seed, config, range, format version and
// latency mode) and is replayed, validated record by record, before the
// missing suffix is generated and run. A truncated final line — the usual
// kill-mid-write artifact — is discarded and rewritten. The returned ShardResult
// is identical to what RunShard would have produced in one uninterrupted
// process, which is what keeps the merged report byte-identical no matter
// how many times a shard crashed on the way.
func (r *Runner) ResumeShard(path string, cfg GeneratorConfig, total, index, count int) (ShardResult, error) {
	gen, s, err := newShard(cfg, total, index, count)
	if err != nil {
		return ShardResult{}, err
	}
	lo, hi := s.Lo, s.Hi
	want := StreamHeader{
		Stream:        streamMagic,
		FormatVersion: s.FormatVersion,
		Config:        cfg,
		Total:         s.Total,
		Lo:            lo,
		Hi:            hi,
		NoLatencies:   r.DropLatencies,
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return ShardResult{}, err
	}
	defer f.Close()

	replayed, offset, err := replayStream(f, want)
	if err != nil {
		return ShardResult{}, fmt.Errorf("%s: %w", path, err)
	}
	next := lo + len(replayed)

	// Drop any truncated final line and position the writer at the end of
	// the last intact record (or at 0 for a fresh/garbled-header file).
	if err := f.Truncate(offset); err != nil {
		return ShardResult{}, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return ShardResult{}, err
	}
	var sw *StreamWriter
	if offset == 0 {
		if sw, err = NewStreamWriter(f, want); err != nil {
			return ShardResult{}, err
		}
	} else {
		sw = newStreamWriterAt(f, want, next)
	}
	sw.SetSyncEvery(r.SyncEvery)

	results := replayed
	if next < hi {
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
		fresh := rr.Run(gen.GenerateRange(next, hi))
		if streamErr != nil {
			return ShardResult{}, fmt.Errorf("%s: %w", path, streamErr)
		}
		results = append(results, fresh...)
	}
	if err := f.Sync(); err != nil {
		return ShardResult{}, err
	}

	s.Results = results
	if err := s.Validate(); err != nil {
		return ShardResult{}, fmt.Errorf("%s: resumed shard failed validation: %w", path, err)
	}
	return s, nil
}

// replayStream reads an existing stream file from the start, returning the
// intact completed results and the byte offset just past the last intact
// line. A missing trailing newline or an unparsable final record marks the
// crash point: replay stops there and the caller truncates. An empty file
// — or one whose header line itself was torn mid-write — replays to
// nothing (offset 0, full restart). A header that parses but does not
// match the requested run is a hard error: the caller pointed resume at
// the wrong file, and extending it would corrupt someone else's shard.
func replayStream(f *os.File, want StreamHeader) ([]Result, int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if fi.Size() == 0 {
		return nil, 0, nil
	}
	br := bufio.NewReader(f)
	line, err := br.ReadBytes('\n')
	if errors.Is(err, io.EOF) {
		// Torn header write: nothing trustworthy in the file.
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	var hdr StreamHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, 0, fmt.Errorf("fleet: existing file is not a shard result stream (header: %v); refusing to overwrite it", err)
	}
	if err := hdr.validate(); err != nil {
		return nil, 0, err
	}
	if err := hdr.matches(want); err != nil {
		return nil, 0, err
	}
	pols, _ := resolvePolicies(want.Config.Policies) // validated via NewGenerator
	offset := int64(len(line))
	var results []Result
	next := want.Lo
	for {
		line, err = readLine(br, line)
		if errors.Is(err, io.EOF) {
			// A partial trailing line (len > 0) is the crash point; either
			// way replay is done.
			return results, offset, nil
		}
		if err != nil {
			return nil, 0, err
		}
		var r Result
		if err := decodeRecord(line, &r); err != nil {
			// A garbled line mid-file: everything from here on is
			// untrustworthy. Truncate and re-run from this scenario — the
			// re-run reproduces the discarded records bit-identically.
			return results, offset, nil
		}
		if next >= want.Hi {
			return nil, 0, fmt.Errorf("fleet: stream [%d,%d) carries records beyond its range", want.Lo, want.Hi)
		}
		if err := validateResultAt(want.Config.Seed, pols, r, next); err != nil {
			return nil, 0, err
		}
		results = append(results, r)
		next++
		offset += int64(len(line))
	}
}
