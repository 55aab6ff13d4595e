package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// The stream record codec encodes and decodes Result lines directly
// instead of through encoding/json's reflection, which dominated the shard
// round trip. encoding/json stays the definition of the format:
// appendRecord emits exactly the bytes json.Marshal emits for a Result,
// and decodeRecord accepts exactly the lines json.Unmarshal accepts,
// decoding each to the same Result. It parses the shape appendRecord
// writes and hands any other line, whole, to json.Unmarshal. The codec
// tests hold both halves to that, field by field and under fuzzing.

// appendRecord appends the JSON encoding of r to dst: the bytes
// json.Marshal(r) returns, with fields in declaration order, omitempty
// fields left out when zero, floats formatted as encoding/json formats
// them, and strings that need escaping escaped by encoding/json itself.
// A NaN or infinite float is an error, as it is for json.Marshal, and
// leaves dst as it was.
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
		for i, l := range r.Latencies {
			if err := checkFinite(l); err != nil {
				return dst, err
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, l)
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
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

// decodeRecord decodes one stream line into r, which it first zeroes. The
// result and the error are what json.Unmarshal(line, r) would give.
func decodeRecord(line []byte, r *Result) error {
	*r = Result{}
	if decodeCanonical(line, r) {
		return nil
	}
	// A separate target keeps r off the heap: only this path allocates it.
	var fallback Result
	err := json.Unmarshal(line, &fallback)
	*r = fallback
	return err
}

// decodeCanonical parses the line shape appendRecord writes: every field
// in declaration order, omitempty fields optional, no whitespace, strings
// of plain bytes only, a non-empty latency array and at most a newline
// after the closing brace. It reports false, leaving r partly filled, on
// anything else.
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
		r.Latencies = d.floats(`,"latencies":`)
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

// floats reads a non-empty array of numbers into an exact-size slice.
func (d *recordDecoder) floats(key string) []float64 {
	if !d.key(key) || !d.lit('[') {
		return nil
	}
	// Only numbers and commas sit between canonical brackets, so the
	// commas before the first ']' fix the element count; a line where
	// they do not fails the parse below.
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end <= 0 {
		d.ok = false
		return nil
	}
	out := make([]float64, bytes.Count(d.b[d.i:d.i+end], []byte{','})+1)
	for k := range out {
		if k > 0 && !d.lit(',') {
			return nil
		}
		out[k] = d.floatValue()
	}
	d.lit(']')
	return out
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
