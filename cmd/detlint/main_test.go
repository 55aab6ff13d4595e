package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/emlrtm/emlrtm/internal/detlint"
)

// The tests drive run() over the analyzer fixture corpus, a module of
// its own, from inside it — the same findings the self-test pins, now
// through the CLI's exit-code and output contract.
const fixtureDir = "../../internal/detlint/testdata/src"

func TestJSONRoundTrip(t *testing.T) {
	t.Chdir(fixtureDir)
	var jsonOut, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &jsonOut, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings); stderr:\n%s", code, stderr.String())
	}
	lines := nonEmptyLines(jsonOut.String())
	if len(lines) == 0 {
		t.Fatal("no JSON diagnostics emitted for the fixture corpus")
	}

	var decoded []detlint.Diagnostic
	for _, line := range lines {
		var d detlint.Diagnostic
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("line %q does not decode as a Diagnostic: %v", line, err)
		}
		if d.File == "" || d.Line <= 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("decoded diagnostic has empty fields: %+v", d)
		}
		// Round trip: re-encoding the decoded value reproduces the line
		// byte for byte, so the JSON mode is a lossless machine interface.
		reenc, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", d, err)
		}
		if string(reenc) != line {
			t.Errorf("round trip mismatch:\n  emitted: %s\n  re-encoded: %s", line, reenc)
		}
		decoded = append(decoded, d)
	}

	// The text mode must agree with the JSON mode line for line.
	var textOut bytes.Buffer
	stderr.Reset()
	if code := run([]string{"./..."}, &textOut, &stderr); code != 1 {
		t.Fatalf("text mode exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	textLines := nonEmptyLines(textOut.String())
	if len(textLines) != len(decoded) {
		t.Fatalf("text mode emitted %d lines, JSON mode %d", len(textLines), len(decoded))
	}
	for i, d := range decoded {
		if textLines[i] != d.String() {
			t.Errorf("line %d: text %q != rendered JSON diagnostic %q", i, textLines[i], d.String())
		}
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{fixtureDir + "/orchcli"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout:\n%sstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run wrote to stdout: %q", stdout.String())
	}
}

func TestBadPatternExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "detlint:") {
		t.Errorf("stderr missing error report: %q", stderr.String())
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out
}
