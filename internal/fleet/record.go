package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// A stream record is one Result as a line of JSON: the bytes json.Marshal
// returns for it, whose latency runs marshal as [value,count]. Result's
// struct and json tags are the one list of a record's fields:
// recordFields is built from them at init, and appendRecord and
// decodeRecord both walk it, reading and setting each field through
// reflect by its index and kind. A field added to Result is encoded and
// decoded with no change here; one of a kind the codec cannot encode
// panics at init.
//
// A record has exactly one accepted encoding. decodeRecord parses the
// fields in table order and then accepts the line only if appendRecord
// of what it decoded gives back the line's bytes: no whitespace, no
// unknown, missing, repeated or reordered key, no other spelling of a
// number or a string. The one value that could not survive that round
// trip, a string that is not valid UTF-8, is refused by appendRecord, so
// StreamWriter.Append never emits a line its reader refuses. The codec
// tests hold appendRecord to json.Marshal, and every accepted line to
// json.Unmarshal, field by field and under fuzzing.
//
// The latencies are written as runs of equal values, [[value,count],...].
// checkRuns is the one definition of a valid run list: values strictly
// ascending (compared with <, so 0 and -0 are one value), so a latency
// distribution has exactly one encoding, counts from 1 up, and no more
// samples than the record's completed count. StreamWriter.Append checks
// it before encoding and decodeRecord after decoding.

// maxRecordLatencies caps the samples one record may carry, whatever its
// completed count claims, so forged counts cannot overflow a sample total
// or make a reader that expands the runs allocate without bound. Generated
// runs last at most 40 s and carry a few thousand samples.
const maxRecordLatencies = 1 << 20

// recordField is one Result field as a record spells it.
type recordField struct {
	key       string // `"name":`, behind a comma for every field but the first
	omitEmpty bool   // left out when zero, as json's omitempty does
}

// recordFields lists Result's fields in declaration order, the order a
// record writes them: entry i is Result field i.
var recordFields = newRecordFields()

// newRecordFields builds the field table from Result's json tags. It
// panics on a field the codec cannot encode: a kind other than int,
// uint64, float64, string and []LatencyRun, a tag option other than
// omitempty, or omitempty on the first field, whose key is the one
// written without a leading comma.
func newRecordFields() []recordField {
	rt := reflect.TypeFor[Result]()
	fields := make([]recordField, rt.NumField())
	for i := range fields {
		f := rt.Field(i)
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch f.Type.Kind() {
		case reflect.Int, reflect.Uint64, reflect.Float64, reflect.String:
		default:
			if f.Type != reflect.TypeFor[[]LatencyRun]() {
				panic(fmt.Sprintf("fleet: Result.%s has type %s, which a stream record cannot encode", f.Name, f.Type))
			}
		}
		if !f.IsExported() || name == "" || name == "-" || (opts != "" && opts != "omitempty") || (i == 0 && opts != "") {
			panic(fmt.Sprintf("fleet: Result.%s has json tag %q, which a stream record cannot encode", f.Name, f.Tag.Get("json")))
		}
		key := string(appendString([]byte{','}, name)) + ":"
		if i == 0 {
			key = key[1:]
		}
		fields[i] = recordField{key: key, omitEmpty: opts == "omitempty"}
	}
	return fields
}

// appendRecord appends the stream encoding of r to dst: the bytes
// json.Marshal returns for r. A NaN or infinite float or a run count
// below 1 is an error, as it is for json.Marshal, and so is a string that
// is not valid UTF-8, which json.Marshal would rewrite; any error leaves
// dst as it was. The order of the runs is the caller's to check (see
// checkRuns).
func appendRecord(dst []byte, r *Result) ([]byte, error) {
	v := reflect.ValueOf(r).Elem()
	b := append(dst, '{')
	for i, f := range recordFields {
		// An omitempty field is left out when it is zero, as json's
		// omitempty does: a float equal to 0 (so -0 too), an empty string
		// or slice.
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int:
			if n := fv.Int(); n != 0 || !f.omitEmpty {
				b = strconv.AppendInt(append(b, f.key...), n, 10)
			}
		case reflect.Uint64:
			if n := fv.Uint(); n != 0 || !f.omitEmpty {
				b = strconv.AppendUint(append(b, f.key...), n, 10)
			}
		case reflect.Float64:
			x := fv.Float()
			if err := checkFinite(x); err != nil {
				return dst, err
			}
			if x != 0 || !f.omitEmpty {
				b = appendFloat(append(b, f.key...), x)
			}
		case reflect.String:
			s := fv.String()
			if !utf8.ValidString(s) {
				return dst, fmt.Errorf("fleet: string %q is not valid UTF-8", s)
			}
			if s != "" || !f.omitEmpty {
				b = appendString(append(b, f.key...), s)
			}
		default:
			if fv.Len() == 0 && f.omitEmpty {
				continue
			}
			b = append(append(b, f.key...), '[')
			for j := range fv.Len() {
				if j > 0 {
					b = append(b, ',')
				}
				e := fv.Index(j) // a LatencyRun: ValueS, then Count
				var err error
				if b, err = appendRun(b, LatencyRun{ValueS: e.Field(0).Float(), Count: int(e.Field(1).Int())}); err != nil {
					return dst, &json.MarshalerError{Type: reflect.TypeFor[LatencyRun](), Err: err}
				}
			}
			b = append(b, ']')
		}
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
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// errNotWritten refuses a line that parses but is not the bytes a stream
// writer writes for the record it decodes to.
var errNotWritten = errors.New("line is not the encoding a stream writer gives the record")

// decodeRecord decodes one stream line, without its newline, into r,
// re-encoding r into buf to check the line; it returns buf for reuse. It
// accepts only a line appendRecord writes whose latency runs pass
// checkRuns, and then r is what json.Unmarshal would decode. On an error
// r is left zero.
func decodeRecord(line []byte, r *Result, buf []byte) ([]byte, error) {
	*r = Result{}
	err := parseRecord(line, reflect.ValueOf(r).Elem())
	if err == nil {
		_, err = checkRuns(r.Latencies, r.Completed)
	}
	if err == nil {
		buf, err = appendRecord(buf[:0], r)
		if err == nil && !bytes.Equal(buf, line) {
			err = errNotWritten
		}
	}
	if err != nil {
		*r = Result{}
	}
	return buf, err
}

// parseRecord reads the fields of line into v in table order, an
// omitempty field wherever its key is absent. It checks only what it must
// to find each value; decodeRecord's re-encoding checks the rest.
func parseRecord(line []byte, v reflect.Value) error {
	b, ok := bytes.CutPrefix(line, []byte{'{'})
	for i, f := range recordFields {
		if !ok {
			return errNotWritten
		}
		if len(b) < len(f.key) || string(b[:len(f.key)]) != f.key {
			ok = f.omitEmpty
			continue
		}
		var err error
		if b, err = parseValue(b[len(f.key):], v.Field(i)); err != nil {
			return err
		}
	}
	if !ok || string(b) != "}" {
		return errNotWritten
	}
	return nil
}

// parseValue reads one value of v's kind from the start of b into v and
// returns the rest of b.
func parseValue(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.String:
		s, rest, err := parseString(b)
		v.SetString(s)
		return rest, err
	case reflect.Slice:
		return parseRuns(b, v)
	}
	tok, rest := cutNumber(b)
	var err error
	switch v.Kind() {
	case reflect.Int:
		var n int64
		n, err = strconv.ParseInt(string(tok), 10, strconv.IntSize)
		v.SetInt(n)
	case reflect.Uint64:
		var n uint64
		n, err = strconv.ParseUint(string(tok), 10, 64)
		v.SetUint(n)
	default:
		var f float64
		f, err = strconv.ParseFloat(string(tok), 64)
		v.SetFloat(f)
	}
	return rest, err
}

// cutNumber splits b before the first byte that ends a number in a
// record: a comma or a closing bracket or brace.
func cutNumber(b []byte) (tok, rest []byte) {
	for i, c := range b {
		if c == ',' || c == ']' || c == '}' {
			return b[:i], b[i:]
		}
	}
	return b, nil
}

// parseString reads a quoted string. One without a backslash is taken as
// its bytes; one with escapes is unquoted by encoding/json.
func parseString(b []byte) (string, []byte, error) {
	if len(b) == 0 || b[0] != '"' {
		return "", b, errNotWritten
	}
	escaped := false
	for i := 1; i < len(b); i++ {
		switch b[i] {
		case '\\':
			escaped = true
			i++
		case '"':
			if !escaped {
				return string(b[1:i]), b[i+1:], nil
			}
			var s string
			err := json.Unmarshal(b[:i+1], &s)
			return s, b[i+1:], err
		}
	}
	return "", b, errNotWritten
}

// parseRuns reads a non-empty array of [value,count] latency runs into
// v; decodeRecord checks the rules between them. The slice is sized by
// the '[' bytes left on the line, one per run on a written line, so it is
// allocated once.
func parseRuns(b []byte, v reflect.Value) ([]byte, error) {
	b, ok := bytes.CutPrefix(b, []byte{'['})
	v.Grow(bytes.Count(b, []byte{'['}))
	for ok {
		var val, count []byte
		if b, ok = bytes.CutPrefix(b, []byte{'['}); !ok {
			break
		}
		val, b = cutNumber(b)
		if b, ok = bytes.CutPrefix(b, []byte{','}); !ok {
			break
		}
		count, b = cutNumber(b)
		if b, ok = bytes.CutPrefix(b, []byte{']'}); !ok {
			break
		}
		f, err := strconv.ParseFloat(string(val), 64)
		if err != nil {
			return b, err
		}
		c, err := strconv.ParseInt(string(count), 10, strconv.IntSize)
		if err != nil {
			return b, err
		}
		n := v.Len()
		v.SetLen(n + 1)
		v.Index(n).Field(0).SetFloat(f) // ValueS
		v.Index(n).Field(1).SetInt(c)   // Count
		if rest, more := bytes.CutPrefix(b, []byte{','}); more {
			b = rest
			continue
		}
		if b, ok = bytes.CutPrefix(b, []byte{']'}); ok {
			return b, nil
		}
	}
	return b, errNotWritten
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
