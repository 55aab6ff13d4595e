// Package sim is a fixture: its import path ends in internal/sim, so the
// determinism-critical analyzers (rangemap, wallclock) apply. Lines carry
// `// want "regex"` expectations consumed by the detlint self-test.
// Its functions are unexported, so deadexport, which asks only about
// exported internal functions, has nothing to say here.
package sim

import "sort"

type stats struct{ n int }

// flagged reads map values in visit order: the canonical determinism bug.
func flagged(m map[string]int) int {
	total := 0
	for _, v := range m { // want `range over map \(map\[string\]int\)`
		total += v
	}
	return total
}

// sortedKeysIdiom collects keys for a sort: recognised as clean.
func sortedKeysIdiom(m map[string]stats) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// nestedIdiom is the sorted-keys idiom nested inside another loop — still
// clean: nesting does not change the inner loop's order-independence.
func nestedIdiom(ms []map[string]int) [][]string {
	var out [][]string
	for _, m := range ms {
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, keys)
	}
	return out
}

type collector struct{ names []string }

// fieldIdiom appends keys onto a field path: the idiom also covers
// selector-chain targets (c.names = append(c.names, k)).
func (c *collector) fieldIdiom(m map[string]int) {
	for k := range m {
		c.names = append(c.names, k)
	}
	sort.Strings(c.names)
}

// notQuiteIdiom appends a *derived* value, not the key itself: flagged.
func notQuiteIdiom(m map[string]int) []string {
	var out []string
	for k := range m { // want `range over map`
		out = append(out, "k="+k)
	}
	sort.Strings(out)
	return out
}

// suppressed carries a reasoned directive on its own line.
func suppressed(m map[string]int) int {
	n := 0
	//detlint:ordered pure count accumulation; visit order cannot change the sum
	for range m {
		n++
	}
	return n
}

// suppressedTrailing carries the directive as a trailing comment.
func suppressedTrailing(dst, src map[string]int) {
	for k, v := range src { //detlint:ordered map-to-map copy is order-independent
		dst[k] = v
	}
}

// missingReason's directive has no reason: the directive itself is a
// diagnostic AND the suppression does not take effect.
func missingReason(m map[string]int) {
	//detlint:ordered
	// want-1 `detlint:ordered requires a reason`
	for k := range m { // want `range over map`
		_ = k
	}
}
