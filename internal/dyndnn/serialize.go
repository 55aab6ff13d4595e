package dyndnn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Serialization: a deployable dynamic DNN must move between the training
// host and the embedded target as one artefact. The format is deliberately
// simple and versioned:
//
//	magic "EMLD" | version u32 | config (7×i64) | param count u32 |
//	for each param: name len u32 | name | group i32 | elem count u32 |
//	               float32 values (little endian)
//
// Loading verifies the architecture matches the receiving model, every
// parameter lines up by name, group and size in the model's own order, and
// nothing follows the last one, so a truncated, mismatched or padded file
// fails loudly rather than producing silent garbage.

const (
	magic         = "EMLD"
	formatVersion = 1
)

// Save writes the model's configuration and all weights.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("dyndnn: save: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(formatVersion)); err != nil {
		return fmt.Errorf("dyndnn: save: %w", err)
	}
	cfgInts := []int64{
		int64(m.Cfg.Groups), int64(m.Cfg.Classes), int64(m.Cfg.ImageSize),
		int64(m.Cfg.InputChannels),
		int64(m.Cfg.StageWidths[0]), int64(m.Cfg.StageWidths[1]), int64(m.Cfg.StageWidths[2]),
	}
	for _, v := range cfgInts {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("dyndnn: save: %w", err)
		}
	}
	params := m.Net.Params()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return fmt.Errorf("dyndnn: save: %w", err)
	}
	for _, p := range params {
		if err := writeString(bw, p.Name); err != nil {
			return fmt.Errorf("dyndnn: save %s: %w", p.Name, err)
		}
		if err := binary.Write(bw, binary.LittleEndian, int32(p.Group)); err != nil {
			return fmt.Errorf("dyndnn: save %s: %w", p.Name, err)
		}
		data := p.Value.Data()
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(data))); err != nil {
			return fmt.Errorf("dyndnn: save %s: %w", p.Name, err)
		}
		buf := make([]byte, 4*len(data))
		for i, v := range data {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("dyndnn: save %s: %w", p.Name, err)
		}
	}
	return bw.Flush()
}

// Load reads weights saved by Save into m. The stored configuration must
// match m's architecture exactly.
func (m *Model) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return fmt.Errorf("dyndnn: load: %w", err)
	}
	if string(head) != magic {
		return fmt.Errorf("dyndnn: load: bad magic %q", head)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return fmt.Errorf("dyndnn: load: %w", err)
	}
	if version != formatVersion {
		return fmt.Errorf("dyndnn: load: unsupported version %d", version)
	}
	var cfgInts [7]int64
	for i := range cfgInts {
		if err := binary.Read(br, binary.LittleEndian, &cfgInts[i]); err != nil {
			return fmt.Errorf("dyndnn: load: %w", err)
		}
	}
	want := []int64{
		int64(m.Cfg.Groups), int64(m.Cfg.Classes), int64(m.Cfg.ImageSize),
		int64(m.Cfg.InputChannels),
		int64(m.Cfg.StageWidths[0]), int64(m.Cfg.StageWidths[1]), int64(m.Cfg.StageWidths[2]),
	}
	for i, v := range want {
		if cfgInts[i] != v {
			return fmt.Errorf("dyndnn: load: architecture mismatch at field %d: file %d, model %d", i, cfgInts[i], v)
		}
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("dyndnn: load: %w", err)
	}
	params := m.Net.Params()
	if int(count) != len(params) {
		return fmt.Errorf("dyndnn: load: %d params in file, model has %d", count, len(params))
	}
	for i, p := range params {
		name, err := readString(br)
		if err != nil {
			return fmt.Errorf("dyndnn: load param %d: %w", i, err)
		}
		if name != p.Name {
			return fmt.Errorf("dyndnn: load param %d: %q, model has %q there", i, name, p.Name)
		}
		var group int32
		if err := binary.Read(br, binary.LittleEndian, &group); err != nil {
			return fmt.Errorf("dyndnn: load %s: %w", name, err)
		}
		if int(group) != p.Group {
			return fmt.Errorf("dyndnn: load %s: group %d, model has %d", name, group, p.Group)
		}
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return fmt.Errorf("dyndnn: load %s: %w", name, err)
		}
		if int(n) != p.Value.Len() {
			return fmt.Errorf("dyndnn: load %s: %d elems, model has %d", name, n, p.Value.Len())
		}
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("dyndnn: load %s: %w", name, err)
		}
		data := p.Value.Data()
		for j := range data {
			data[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("dyndnn: load: data after the last parameter")
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("string length %d implausible", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
