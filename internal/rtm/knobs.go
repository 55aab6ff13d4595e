// Package rtm implements the paper's runtime-management layer (Section V,
// Fig 5): a PRiME-style three-layer architecture in which applications and
// devices expose *knobs* (adjustable parameters) and *monitors* (observable
// metrics), and a runtime manager closes the loop between application
// requirements and device constraints.
//
// Knobs implemented: the dynamic-DNN configuration level (application
// knob), task mapping and per-cluster DVFS (device knobs). Monitors:
// frame latency / miss counts / accuracy and confidence (application),
// temperature and power (device).
package rtm

import (
	"fmt"
	"sort"
)

// Layer identifies which Fig 5 layer an interface element belongs to.
type Layer string

// Fig 5 layers.
const (
	LayerApplication Layer = "application"
	LayerDevice      Layer = "device"
)

// Knob is an adjustable integer-valued parameter with an inclusive range.
// Examples: a DNN's configuration level (1..G), a cluster's OPP index
// (0..n-1), a task's core allocation.
type Knob struct {
	Name  string
	Layer Layer
	Min   int
	Max   int
	value int
	apply func(int) error
	// read, when set, reads the setting from the actuated system instead
	// of the last value Set wrote, so the knob never goes stale when
	// something other than the knob actuates it.
	read func() int
}

// Value returns the knob's current setting.
func (k *Knob) Value() int {
	if k.read != nil {
		return k.read()
	}
	return k.value
}

// Set actuates the knob. Out-of-range values are rejected before the
// underlying actuator runs.
func (k *Knob) Set(v int) error {
	if v < k.Min || v > k.Max {
		return fmt.Errorf("rtm: knob %s value %d outside [%d,%d]", k.Name, v, k.Min, k.Max)
	}
	if k.apply != nil {
		if err := k.apply(v); err != nil {
			return err
		}
	}
	k.value = v
	return nil
}

// Monitor is a read-only metric source. Examples: frame latency, top-1
// accuracy of the active configuration, die temperature, platform power.
type Monitor struct {
	Name  string
	Layer Layer
	Unit  string
	read  func() float64
}

// Read samples the monitor.
func (m *Monitor) Read() float64 {
	if m.read == nil {
		return 0
	}
	return m.read()
}

// Registry is the knob/monitor namespace the runtime manager operates on —
// the "interface between available hardware resources, software
// requirements and user experience" the paper argues must be managed.
type Registry struct {
	knobs    map[string]*Knob
	monitors map[string]*Monitor
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{knobs: map[string]*Knob{}, monitors: map[string]*Monitor{}}
}

// RegisterKnob adds a knob; the initial value must lie in [min,max].
func (r *Registry) RegisterKnob(name string, layer Layer, min, max, initial int, apply func(int) error) (*Knob, error) {
	if _, dup := r.knobs[name]; dup {
		return nil, fmt.Errorf("rtm: duplicate knob %q", name)
	}
	if min > max || initial < min || initial > max {
		return nil, fmt.Errorf("rtm: knob %q range [%d,%d] initial %d invalid", name, min, max, initial)
	}
	k := &Knob{Name: name, Layer: layer, Min: min, Max: max, value: initial, apply: apply}
	r.knobs[name] = k
	return k, nil
}

// RegisterMonitor adds a monitor.
func (r *Registry) RegisterMonitor(name string, layer Layer, unit string, read func() float64) (*Monitor, error) {
	if _, dup := r.monitors[name]; dup {
		return nil, fmt.Errorf("rtm: duplicate monitor %q", name)
	}
	m := &Monitor{Name: name, Layer: layer, Unit: unit, read: read}
	r.monitors[name] = m
	return m, nil
}

// Knob returns the named knob, or nil.
func (r *Registry) Knob(name string) *Knob { return r.knobs[name] }

// Monitor returns the named monitor, or nil.
func (r *Registry) Monitor(name string) *Monitor { return r.monitors[name] }

// KnobNames returns all knob names sorted, optionally filtered by layer
// ("" = all).
func (r *Registry) KnobNames(layer Layer) []string {
	var out []string
	//detlint:ordered names are filtered while collected, then sorted below
	for n, k := range r.knobs {
		if layer == "" || k.Layer == layer {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// MonitorNames returns all monitor names sorted, optionally filtered by
// layer ("" = all).
func (r *Registry) MonitorNames(layer Layer) []string {
	var out []string
	//detlint:ordered names are filtered while collected, then sorted below
	for n, m := range r.monitors {
		if layer == "" || m.Layer == layer {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot reads every monitor once, keyed by name — one control-loop
// observation.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64, len(r.monitors))
	//detlint:ordered map-to-map rebuild; per-key reads and writes are order-independent
	for n, m := range r.monitors {
		out[n] = m.Read()
	}
	return out
}
