package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
)

// The stream record codec encodes and decodes Result lines directly
// instead of through encoding/json's reflection, which dominated the shard
// round trip. encoding/json stays the definition of the format: a record
// line is json.Marshal of the Result, whose latency runs marshal as
// [value,count], and a line decodes as json.Unmarshal decodes it into a
// Result, followed by checkRuns. The codec tests hold both halves to
// that, field by field and under fuzzing.
//
// The latencies are written as runs of equal values, [[value,count],...].
// checkRuns is the one definition of a valid run list: values strictly
// ascending (compared with <, so 0 and -0 are one value), so a latency
// distribution has exactly one encoding, counts from 1 up, and no more
// samples than the record's completed count. StreamWriter.Append checks
// it before encoding and decodeRecord after decoding, so a writer never
// emits a line its reader refuses.

// maxRecordLatencies caps the samples one record may carry, whatever its
// completed count claims, so forged counts cannot overflow a sample total
// or make a reader that expands the runs allocate without bound. Generated
// runs last at most 40 s and carry a few thousand samples.
const maxRecordLatencies = 1 << 20

// appendRecord appends the stream encoding of r to dst: the bytes
// json.Marshal returns for r, with fields in declaration order, omitempty
// fields left out when zero, floats formatted as encoding/json formats
// them, and strings that need escaping escaped by encoding/json itself. A
// NaN or infinite float or a run count below 1 is an error, as it is for
// json.Marshal; any error leaves dst as it was. The order of the runs is
// the caller's to check (see checkRuns).
func appendRecord(dst []byte, r *Result) ([]byte, error) {
	for _, f := range [...]float64{
		r.DurationS, r.MeanLatencyS, r.P95LatencyS, r.MaxLatencyS, r.EnergyMJ,
		r.AvgPowerMW, r.MaxTempC, r.OverThrottleS, r.UnhostedS, r.RecoverTotalS,
	} {
		if err := checkFinite(f); err != nil {
			return dst, err
		}
	}
	b := append(dst, `{"id":`...)
	b = strconv.AppendInt(b, int64(r.ID), 10)
	b = appendString(append(b, `,"name":`...), r.Name)
	b = appendString(append(b, `,"class":`...), string(r.Class))
	b = appendString(append(b, `,"platform":`...), r.Platform)
	b = appendString(append(b, `,"policy":`...), r.Policy)
	b = strconv.AppendUint(append(b, `,"seed":`...), r.Seed, 10)
	if r.Err != "" {
		b = appendString(append(b, `,"err":`...), r.Err)
	}
	b = appendFloat(append(b, `,"durationS":`...), r.DurationS)
	b = strconv.AppendInt(append(b, `,"released":`...), int64(r.Released), 10)
	b = strconv.AppendInt(append(b, `,"completed":`...), int64(r.Completed), 10)
	b = strconv.AppendInt(append(b, `,"missed":`...), int64(r.Missed), 10)
	b = strconv.AppendInt(append(b, `,"dropped":`...), int64(r.Dropped), 10)
	b = appendFloat(append(b, `,"meanLatencyS":`...), r.MeanLatencyS)
	b = appendFloat(append(b, `,"p95LatencyS":`...), r.P95LatencyS)
	b = appendFloat(append(b, `,"maxLatencyS":`...), r.MaxLatencyS)
	b = appendFloat(append(b, `,"energyMJ":`...), r.EnergyMJ)
	b = appendFloat(append(b, `,"avgPowerMW":`...), r.AvgPowerMW)
	b = appendFloat(append(b, `,"maxTempC":`...), r.MaxTempC)
	b = appendFloat(append(b, `,"overThrottleS":`...), r.OverThrottleS)
	b = strconv.AppendInt(append(b, `,"plans":`...), int64(r.Plans), 10)
	b = strconv.AppendInt(append(b, `,"migrations":`...), int64(r.Migrations), 10)
	b = strconv.AppendInt(append(b, `,"levelSwaps":`...), int64(r.LevelSwaps), 10)
	b = strconv.AppendInt(append(b, `,"oppSwitches":`...), int64(r.OPPSwitches), 10)
	b = appendOmitInt(b, `,"clusterFails":`, r.ClusterFails)
	b = appendOmitInt(b, `,"clusterRepairs":`, r.ClusterRepairs)
	b = appendOmitInt(b, `,"jobsAborted":`, r.JobsAborted)
	if r.UnhostedS != 0 {
		b = appendFloat(append(b, `,"unhostedS":`...), r.UnhostedS)
	}
	b = appendOmitInt(b, `,"recoverCount":`, r.RecoverCount)
	if r.RecoverTotalS != 0 {
		b = appendFloat(append(b, `,"recoverTotalS":`...), r.RecoverTotalS)
	}
	b = appendOmitInt(b, `,"degradedFrames":`, r.DegradedFrames)
	b = appendOmitInt(b, `,"degradedMissed":`, r.DegradedMissed)
	b = appendOmitInt(b, `,"degradedDropped":`, r.DegradedDropped)
	if len(r.Latencies) > 0 {
		b = append(b, `,"latencies":[`...)
		for i, run := range r.Latencies {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendRun(b, run); err != nil {
				return dst, &json.MarshalerError{Type: reflect.TypeFor[LatencyRun](), Err: err}
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// MarshalJSON encodes the run as [value,count].
func (r LatencyRun) MarshalJSON() ([]byte, error) {
	return appendRun(nil, r)
}

// UnmarshalJSON decodes [value,count]: two numbers, the count a whole
// number from 1 to maxRecordLatencies.
func (r *LatencyRun) UnmarshalJSON(b []byte) error {
	var pair []float64
	if err := json.Unmarshal(b, &pair); err != nil {
		return err
	}
	if len(pair) != 2 {
		return fmt.Errorf("fleet: latency run has %d elements, want [value,count]", len(pair))
	}
	if c := pair[1]; c < 1 || c != math.Trunc(c) || c > maxRecordLatencies {
		return fmt.Errorf("fleet: latency run count %g is not a whole number from 1 to %d", c, maxRecordLatencies)
	}
	*r = LatencyRun{ValueS: pair[0], Count: int(pair[1])}
	return nil
}

// appendRun appends run as [value,count]. A value JSON cannot carry or a
// count below 1 is an error.
func appendRun(b []byte, run LatencyRun) ([]byte, error) {
	if err := checkFinite(run.ValueS); err != nil {
		return b, err
	}
	if run.Count < 1 {
		return b, fmt.Errorf("fleet: latency run count %d is below 1", run.Count)
	}
	b = appendFloat(append(b, '['), run.ValueS)
	b = strconv.AppendInt(append(b, ','), int64(run.Count), 10)
	return append(b, ']'), nil
}

// checkFinite returns json.Marshal's error for a float JSON cannot carry.
func checkFinite(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return nil
}

func appendOmitInt(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendFloat formats a finite float as encoding/json does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 up, and a
// two-digit negative exponent shortened to one (e-09 becomes e-9).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString quotes s as JSON. Printable ASCII other than the quote,
// the backslash and encoding/json's HTML-escaped <, > and & is copied
// as is; any other string is quoted by encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !plainByte(c) {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plainByte reports whether c stands for itself inside a JSON string as
// encoding/json writes and reads it.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// decodeRecord decodes one stream line into r. The result and the error
// are what json.Unmarshal into a Result gives, followed by checkRuns; on
// an error r is left zero.
func decodeRecord(line []byte, r *Result) error {
	*r = Result{}
	if !decodeCanonical(line, r) {
		*r = Result{}
		// A separate target keeps r off the heap: only this path allocates it.
		var rec Result
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		*r = rec
	}
	if _, err := checkRuns(r.Latencies, r.Completed); err != nil {
		*r = Result{}
		return err
	}
	return nil
}

// checkRuns is the one definition of a valid latency run list: every
// count at least 1, run values strictly ascending, and at most completed
// (and maxRecordLatencies) samples in all. It returns the sample total.
func checkRuns(runs []LatencyRun, completed int) (int, error) {
	room := min(completed, maxRecordLatencies)
	n := 0
	for i, run := range runs {
		if run.Count < 1 {
			return 0, fmt.Errorf("latency run %d has count %d, want at least 1", i, run.Count)
		}
		if run.Count > room-n {
			return 0, fmt.Errorf("latency runs hold more samples than completed (%d)", completed)
		}
		n += run.Count
		if i > 0 && !(run.ValueS > runs[i-1].ValueS) {
			return 0, fmt.Errorf("latency run %d has value %g, not above run %d's %g; run values must strictly ascend", i, run.ValueS, i-1, runs[i-1].ValueS)
		}
	}
	return n, nil
}

// decodeCanonical parses the line shape appendRecord writes: every field
// in declaration order, omitempty fields optional, no whitespace, strings
// of plain bytes only, a non-empty array of [value,count] latency runs
// with decimal-integer counts from 1 to maxRecordLatencies, and at most a
// newline after the closing brace.
// It reports false, leaving r partly filled, on anything else.
func decodeCanonical(line []byte, r *Result) bool {
	d := recordDecoder{b: line, ok: true}
	r.ID = d.int(`{"id":`)
	r.Name = d.str(`,"name":`)
	r.Class = Class(d.str(`,"class":`))
	r.Platform = d.str(`,"platform":`)
	r.Policy = d.str(`,"policy":`)
	r.Seed = d.uint(`,"seed":`)
	if d.has(`,"err":`) {
		r.Err = d.str(`,"err":`)
	}
	r.DurationS = d.float(`,"durationS":`)
	r.Released = d.int(`,"released":`)
	r.Completed = d.int(`,"completed":`)
	r.Missed = d.int(`,"missed":`)
	r.Dropped = d.int(`,"dropped":`)
	r.MeanLatencyS = d.float(`,"meanLatencyS":`)
	r.P95LatencyS = d.float(`,"p95LatencyS":`)
	r.MaxLatencyS = d.float(`,"maxLatencyS":`)
	r.EnergyMJ = d.float(`,"energyMJ":`)
	r.AvgPowerMW = d.float(`,"avgPowerMW":`)
	r.MaxTempC = d.float(`,"maxTempC":`)
	r.OverThrottleS = d.float(`,"overThrottleS":`)
	r.Plans = d.int(`,"plans":`)
	r.Migrations = d.int(`,"migrations":`)
	r.LevelSwaps = d.int(`,"levelSwaps":`)
	r.OPPSwitches = d.int(`,"oppSwitches":`)
	r.ClusterFails = d.optInt(`,"clusterFails":`)
	r.ClusterRepairs = d.optInt(`,"clusterRepairs":`)
	r.JobsAborted = d.optInt(`,"jobsAborted":`)
	r.UnhostedS = d.optFloat(`,"unhostedS":`)
	r.RecoverCount = d.optInt(`,"recoverCount":`)
	r.RecoverTotalS = d.optFloat(`,"recoverTotalS":`)
	r.DegradedFrames = d.optInt(`,"degradedFrames":`)
	r.DegradedMissed = d.optInt(`,"degradedMissed":`)
	r.DegradedDropped = d.optInt(`,"degradedDropped":`)
	if d.has(`,"latencies":`) {
		r.Latencies = d.runs(`,"latencies":`)
	}
	d.lit('}')
	if rest := d.b[d.i:]; len(rest) > 1 || (len(rest) == 1 && rest[0] != '\n') {
		d.ok = false
	}
	return d.ok
}

// recordDecoder is decodeCanonical's cursor. ok turns false at the first
// byte off the canonical shape and stays false; every read after that
// returns a zero value.
type recordDecoder struct {
	b  []byte
	i  int
	ok bool
}

// has reports whether the next bytes are key.
func (d *recordDecoder) has(key string) bool {
	return d.ok && len(d.b)-d.i >= len(key) && string(d.b[d.i:d.i+len(key)]) == key
}

// key consumes key.
func (d *recordDecoder) key(key string) bool {
	if !d.has(key) {
		d.ok = false
		return false
	}
	d.i += len(key)
	return true
}

// lit consumes the byte c.
func (d *recordDecoder) lit(c byte) bool {
	if !d.ok || d.i >= len(d.b) || d.b[d.i] != c {
		d.ok = false
		return false
	}
	d.i++
	return true
}

// number consumes a JSON number token, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// or only its integer part when intOnly is set.
func (d *recordDecoder) number(intOnly bool) []byte {
	if !d.ok {
		return nil
	}
	start := d.i
	if d.peek() == '-' {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case c >= '1' && c <= '9':
		d.digits()
	default:
		d.ok = false
		return nil
	}
	if !intOnly {
		if d.peek() == '.' {
			d.i++
			if !d.digits() {
				d.ok = false
				return nil
			}
		}
		if c := d.peek(); c == 'e' || c == 'E' {
			d.i++
			if c := d.peek(); c == '+' || c == '-' {
				d.i++
			}
			if !d.digits() {
				d.ok = false
				return nil
			}
		}
	}
	return d.b[start:d.i]
}

// peek returns the next byte, or 0 at the end of the line.
func (d *recordDecoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// digits consumes a run of decimal digits, reporting whether there was one.
func (d *recordDecoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

func (d *recordDecoder) int(key string) int {
	if !d.key(key) {
		return 0
	}
	tok := d.number(true)
	if tok == nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		d.ok = false
		return 0
	}
	return int(n)
}

// optInt reads an omitempty int field: absent means zero.
func (d *recordDecoder) optInt(key string) int {
	if !d.has(key) {
		return 0
	}
	return d.int(key)
}

func (d *recordDecoder) uint(key string) uint64 {
	if !d.key(key) || d.peek() == '-' {
		d.ok = false
		return 0
	}
	tok := d.number(true)
	if tok == nil {
		return 0
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		d.ok = false
		return 0
	}
	return n
}

func (d *recordDecoder) float(key string) float64 {
	if !d.key(key) {
		return 0
	}
	return d.floatValue()
}

// optFloat reads an omitempty float field: absent means zero.
func (d *recordDecoder) optFloat(key string) float64 {
	if !d.has(key) {
		return 0
	}
	return d.float(key)
}

// floatValue parses one number token as encoding/json parses a float64
// field; a token strconv rejects (out of range) leaves the line to
// json.Unmarshal.
func (d *recordDecoder) floatValue() float64 {
	tok := d.number(false)
	if tok == nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.ok = false
		return 0
	}
	return f
}

// runs reads a non-empty array of latency runs; decodeRecord checks the
// rules between them. The slice is sized by the '[' bytes left on the
// line, one per run on a canonical line, so it is allocated once.
func (d *recordDecoder) runs(key string) []LatencyRun {
	if !d.key(key) || !d.lit('[') {
		return nil
	}
	out := make([]LatencyRun, 0, bytes.Count(d.b[d.i:], []byte{'['}))
	for {
		d.lit('[')
		v := d.floatValue()
		d.lit(',')
		c := d.count()
		d.lit(']')
		if !d.ok {
			return nil
		}
		out = append(out, LatencyRun{ValueS: v, Count: c})
		if d.peek() != ',' {
			break
		}
		d.i++
	}
	d.lit(']')
	return out
}

// count reads a run count: a decimal integer from 1 to
// maxRecordLatencies, with no sign, leading zero, fraction or exponent.
func (d *recordDecoder) count() int {
	tok := d.number(true)
	if len(tok) == 0 || tok[0] < '1' || tok[0] > '9' {
		d.ok = false
		return 0
	}
	n := 0
	for _, c := range tok {
		if n = n*10 + int(c-'0'); n > maxRecordLatencies {
			d.ok = false
			return 0
		}
	}
	return n
}

// str reads a string of plain bytes (see plainByte); anything needing an
// unescape or a UTF-8 check is left to json.Unmarshal.
func (d *recordDecoder) str(key string) string {
	if !d.key(key) || !d.lit('"') {
		return ""
	}
	start := d.i
	for d.i < len(d.b) && plainByte(d.b[d.i]) {
		d.i++
	}
	s := d.b[start:d.i]
	if !d.lit('"') {
		return ""
	}
	return string(s)
}
