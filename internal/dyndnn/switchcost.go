package dyndnn

// SwitchCostModel quantifies the cost of changing operating point at
// runtime, reproducing the argument the paper takes from Park et al. [20]:
// deploying multiple static DNNs to cover all hardware settings incurs
// significant memory storage overhead, and switching between them at
// runtime causes significant delay and energy; a dynamic DNN switches
// within one memory footprint.
type SwitchCostModel struct {
	// MemoryBandwidth is the sustained model-load bandwidth in bytes/s
	// (flash/eMMC → DRAM on an embedded platform).
	MemoryBandwidth float64
	// ReinitLatency is the fixed runtime/graph re-initialisation time in
	// seconds charged whenever a different model binary is activated.
	ReinitLatency float64
	// LoadPower is the platform power draw in watts while loading.
	LoadPower float64
}

// DefaultSwitchCostModel uses representative embedded numbers: ~200 MB/s
// eMMC read bandwidth, 50 ms framework re-init, 1.5 W active load power.
func DefaultSwitchCostModel() SwitchCostModel {
	return SwitchCostModel{
		MemoryBandwidth: 200e6,
		ReinitLatency:   0.050,
		LoadPower:       1.5,
	}
}

// SwitchCost is the cost of one model-configuration change.
type SwitchCost struct {
	BytesMoved int64
	LatencyS   float64
	EnergyJ    float64
}

// DynamicSwitch returns the cost of switching the dynamic DNN between two
// levels: no parameters move (all levels live in one footprint); the only
// cost is updating the active-group setting, modelled as a fixed few
// microseconds of control work.
func (s SwitchCostModel) DynamicSwitch(from, to int) SwitchCost {
	if from == to {
		return SwitchCost{}
	}
	const controlLatency = 5e-6
	return SwitchCost{
		BytesMoved: 0,
		LatencyS:   controlLatency,
		EnergyJ:    controlLatency * s.LoadPower,
	}
}

// StaticSwitch returns the cost of swapping in a different static model of
// the given size: the new model's parameters are loaded from storage and
// the runtime re-initialises.
func (s SwitchCostModel) StaticSwitch(newModelBytes int64) SwitchCost {
	lat := float64(newModelBytes)/s.MemoryBandwidth + s.ReinitLatency
	return SwitchCost{
		BytesMoved: newModelBytes,
		LatencyS:   lat,
		EnergyJ:    lat * s.LoadPower,
	}
}
