package trace

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "Name", "Value", "Note")
	tb.AddRow("alpha", 3.14159, "first")
	tb.AddRow("beta", 12345.6, "second")
	tb.AddRow("gamma", 0.001234, "third")
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Fatal("title missing")
	}
	for _, want := range []string{"alpha", "beta", "gamma", "3.14", "12346", "0.001"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 3 rows.
	if len(lines) != 6 {
		t.Fatalf("line count %d, want 6:\n%s", len(lines), out)
	}
}

func TestTableColumnsAligned(t *testing.T) {
	tb := NewTable("", "A", "LongHeader")
	tb.AddRow("xxxxxxxxxx", 1)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header and row must place the second column at the same offset.
	hIdx := strings.Index(lines[0], "LongHeader")
	rIdx := strings.Index(lines[2], "1")
	if hIdx != rIdx {
		t.Fatalf("column misaligned: header at %d, row at %d\n%s", hIdx, rIdx, out)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{12345, "12345"},
		{42.42, "42.4"},
		{3.14159, "3.14"},
		{0.1234, "0.123"},
		{-7.5, "-7.50"},
	}
	for _, c := range cases {
		if got := formatFloat(c.v); got != c.want {
			t.Fatalf("formatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestFigureSeriesAndCSV(t *testing.T) {
	f := NewFigure("fig", "x_ms", "y_mj")
	s1 := f.NewSeries("A7, 25% model")
	s1.Add(1, 2)
	s1.Add(3, 4)
	s2 := f.NewSeries("A15, 100% model")
	s2.Add(5, 6)
	csv := f.CSV()
	if !strings.HasPrefix(csv, "series,x_ms,y_mj\n") {
		t.Fatalf("header wrong: %s", csv)
	}
	for _, want := range []string{"A7, 25% model,1,2", "A7, 25% model,3,4", "A15, 100% model,5,6"} {
		if !strings.Contains(csv, want) {
			t.Fatalf("csv missing %q:\n%s", want, csv)
		}
	}
}

func TestEmptyTableStillRenders(t *testing.T) {
	tb := NewTable("Empty", "only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Fatal("header missing on empty table")
	}
}
