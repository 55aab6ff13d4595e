package dyndnn

import (
	"bytes"
	"testing"

	"github.com/emlrtm/emlrtm/internal/dataset"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := tinyModel(t)
	// Perturb some weights so the round trip is non-trivial.
	for i, p := range m.Net.Params() {
		p.Value.Data()[0] = float32(i) * 0.25
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := m.Checksum(m.Levels())

	other := tinyModel(t)
	if other.Checksum(other.Levels()) == sum {
		t.Fatal("precondition: models should differ before Load")
	}
	if err := other.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if other.Checksum(other.Levels()) != sum {
		t.Fatal("weights differ after round trip")
	}
}

func TestLoadedModelPredictsIdentically(t *testing.T) {
	m := tinyModel(t)
	ds := dataset.MustGenerate(miniData())
	x := ds.ValX.Slice4D(0, 4)
	want := m.Forward(x).Clone()

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := tinyModel(t)
	if err := other.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := other.Forward(x); !got.AllClose(want, 0) {
		t.Fatal("loaded model predicts differently")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	m := tinyModel(t)
	if err := m.Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := m.Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestLoadRejectsArchitectureMismatch(t *testing.T) {
	m := tinyModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	bigger := DefaultConfig() // 32×32 vs the quick 16×16
	other := MustNew(bigger)
	if err := other.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("architecture mismatch accepted")
	}
}

func TestLoadRejectsTruncatedFile(t *testing.T) {
	m := tinyModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	other := tinyModel(t)
	if err := other.Load(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated file accepted")
	}
}

// FuzzModelLoad: Load never panics on arbitrary bytes, and a file it
// accepts is exactly what Save writes back — so nothing in an accepted
// file goes unread (no trailing bytes, every parameter in place) and
// nothing is reinterpreted on the way in. Seeds are a saved small model and
// truncations of it at every field boundary of the header.
func FuzzModelLoad(f *testing.F) {
	m, err := New(Config{Groups: 2, Classes: 2, ImageSize: 8, InputChannels: 1, StageWidths: []int{1, 1, 1}, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	saved := buf.Bytes()
	f.Add(saved)
	for _, n := range []int{0, 3, 4, 8, 8 + 7*8, 8 + 7*8 + 4, len(saved) / 2, len(saved) - 1} {
		f.Add(saved[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := m.Load(bytes.NewReader(data)); err != nil {
			return
		}
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("Load accepted %d bytes that Save writes back as %d different bytes", len(data), out.Len())
		}
	})
}
