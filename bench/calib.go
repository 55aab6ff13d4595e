package main

import (
	"hash/crc32"
	"math"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"
)

// The timing metrics are calibrated against a reference kernel. On a shared
// VM the host's speed drifts by half or more over minutes, as neighbours'
// load comes and goes, and a wall-clock benchmark measures that drift more
// than the program. So the benchmark runs a fixed, self-contained kernel in
// short chunks between the workload's own steps, and scales each step's
// wall time by how fast the kernel ran around it: a step's calibrated time
// is its wall time × refNominalNS ÷ (median duration of the nearby chunks).
// It reads as host seconds at the speed the kernel has on a quiet host. The
// kernel is code of this package and the standard library alone, so no
// change to the repository can make it faster or slower.
//
// What slows this host is mostly not time taken away (steal time stays near
// zero, and CPU time tracks wall time) but a core that runs slower, as when
// a neighbour shares it. Code with a large footprint suffers more from that
// than a tight loop, so besides its event loop the kernel cycles through
// standard-library routines (float formatting and parsing, sorting, time
// formatting, CRC, UTF-8 and quoting), which brought its slowdown closer to
// the simulator's. It still under-corrects: in 15-second windows where the
// host ran 1.3-1.5x slower, flagship sweeps calibrated 1.03-1.11x slower.

// refEvents is the number of events one reference chunk simulates.
const refEvents = 150

// refNominalNS only sets the scale of calibrated times: a change to it
// scales every timing metric by the same factor. It is about a chunk's
// duration when chunks run back to back on a quiet 2-vCPU Xeon VM, Go 1.24.
const refNominalNS = 46_000

// refEvery is the least host time between two reference chunks, so cheap
// steps (a sub-millisecond scenario run) share one.
const refEvery = 500 * time.Microsecond

// refWindow is how many chunks on each side of a step, besides the nearest,
// its calibration takes the median of. The median discards chunks that an
// interrupt or a preemption stretched.
const refWindow = 8

// refTask is one periodic task of the reference kernel. The interface keeps
// a dynamic call on the kernel's path, as the simulator's controller has.
type refTask interface {
	cost(tempC float64) float64
}

type cpuTask struct{ work float64 }

func (t cpuTask) cost(tempC float64) float64 { return t.work * (1 + tempC/120) }

type npuTask struct{ work, setup float64 }

func (t npuTask) cost(tempC float64) float64 { return t.setup + t.work*math.Sqrt(1+tempC/60) }

// refEvent is a release (kind 0) or completion (kind 1) of task app at t.
type refEvent struct {
	t    float64
	kind int
	app  int
}

// refKernel is a small discrete-event simulation of periodic tasks on a
// heating core: a hand-rolled binary heap of events, exponential thermal
// smoothing, an interface call, a map lookup and one standard-library
// routine per event. It allocates nothing after newRefKernel.
type refKernel struct {
	heap  [32]refEvent
	n     int
	tasks []refTask
	prio  map[int]int
	temp  []float64
	done  []int
	miss  []int

	buf   []byte
	sorts [24]float64
	nums  []string
	doc   []byte
	text  string
	epoch time.Time
}

func newRefKernel() *refKernel {
	k := &refKernel{
		prio:  map[int]int{},
		buf:   make([]byte, 0, 512),
		doc:   []byte(`{"cluster":"big","cores":[0,1,2,3],"opp":{"ghz":1.8,"v":0.93},"apps":[{"id":3,"level":2},{"id":9,"level":4}]}`),
		text:  "événement-größe-ñandú-θερμοκρασία-温度-周期-deadline",
		epoch: time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC),
	}
	for i := 0; i < 64; i++ {
		k.nums = append(k.nums, strconv.FormatFloat(float64(i)*1.37e-3+0.5, 'g', -1, 64))
	}
	for i := 0; i < 12; i++ {
		if i%3 == 2 {
			k.tasks = append(k.tasks, npuTask{work: 0.0015 + float64(i)*0.0002, setup: 0.0004})
		} else {
			k.tasks = append(k.tasks, cpuTask{work: 0.002 + float64(i%4)*0.0007})
		}
		k.prio[i] = i % 5
	}
	k.temp = make([]float64, len(k.tasks))
	k.done = make([]int, len(k.tasks))
	k.miss = make([]int, len(k.tasks))
	return k
}

func (k *refKernel) push(e refEvent) {
	i := k.n
	k.heap[i] = e
	k.n++
	for i > 0 {
		p := (i - 1) / 2
		if k.heap[p].t <= k.heap[i].t {
			break
		}
		k.heap[p], k.heap[i] = k.heap[i], k.heap[p]
		i = p
	}
}

func (k *refKernel) pop() refEvent {
	top := k.heap[0]
	k.n--
	k.heap[0] = k.heap[k.n]
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < k.n && k.heap[l].t < k.heap[small].t {
			small = l
		}
		if r := l + 1; r < k.n && k.heap[r].t < k.heap[small].t {
			small = r
		}
		if small == i {
			break
		}
		k.heap[i], k.heap[small] = k.heap[small], k.heap[i]
		i = small
	}
	return top
}

// run simulates events events from the kernel's initial state, with the
// jitter stream seeded by seed, and returns a checksum of the outcome.
func (k *refKernel) run(events int, seed uint64) uint64 {
	k.n = 0
	for i := range k.tasks {
		k.temp[i], k.done[i], k.miss[i] = 25, 0, 0
		k.push(refEvent{t: 0.001 * float64(i), app: i})
	}
	x := (seed + 1) * 0x9e3779b97f4a7c15
	for e := 0; e < events; e++ {
		ev := k.pop()
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		jitter := float64(x%1024) * 1e-6
		period := 0.01 + 0.004*float64(k.prio[ev.app])
		k.temp[ev.app] = 25 + (k.temp[ev.app]-25)*math.Exp(-0.02) + 3*k.tasks[ev.app].cost(k.temp[ev.app])
		c := k.tasks[ev.app].cost(k.temp[ev.app]) + jitter
		if ev.kind == 0 {
			k.push(refEvent{t: ev.t + c, kind: 1, app: ev.app})
			continue
		}
		if c > period/2 {
			k.miss[ev.app]++
		} else {
			k.done[ev.app]++
		}
		k.push(refEvent{t: ev.t - c + period, app: ev.app})
		x += k.library(e, x)
	}
	sum := x
	for i := range k.tasks {
		sum = sum*31 + uint64(k.done[i])*7 + uint64(k.miss[i]) + math.Float64bits(k.temp[i])
	}
	return sum
}

// library runs the standard-library routine for event e, with x as its
// input, and returns a value derived from the result.
func (k *refKernel) library(e int, x uint64) uint64 {
	switch e % 8 {
	case 0:
		k.buf = strconv.AppendFloat(k.buf[:0], float64(x%100000)*1.3e-4, 'g', -1, 64)
		return uint64(len(k.buf))
	case 1:
		v, _ := strconv.ParseFloat(k.nums[x%64], 64)
		return uint64(v * 1000)
	case 2:
		return uint64(math.Pow(1.0001+float64(x%100)*1e-4, 7.5)*1e3) + uint64(math.Log1p(float64(x%1000)))
	case 3:
		for i := range k.sorts {
			k.sorts[i] = float64((x >> (i % 48)) % 997)
		}
		sort.Float64s(k.sorts[:])
		return uint64(k.sorts[12])
	case 4:
		k.buf = k.epoch.Add(time.Duration(x%1e12)).AppendFormat(k.buf[:0], time.RFC3339Nano)
		return uint64(k.buf[len(k.buf)-2])
	case 5:
		k.buf = strconv.AppendQuote(k.buf[:0], k.text[:x%8+40])
		return uint64(len(k.buf))
	case 6:
		return uint64(crc32.ChecksumIEEE(k.doc[x%32 : 64+x%32]))
	default:
		return uint64(utf8.RuneCountInString(k.text[:x%8+40]))
	}
}

// segKind classifies a step of timed work.
type segKind int

const (
	segOther segKind = iota // call start-up, aggregation, shard reads, merges, Train
	segRun                  // one scenario run: a per-run latency sample
)

// segment is one step of timed work, between two marks, and the reference
// chunk it is calibrated around. Times are nanoseconds since the clock's
// origin; no chunk runs inside a segment.
type segment struct {
	startNS, endNS float64
	ref            int // index of the chunk taken at or just before its end
	kind           segKind
}

// segRange is the segments [lo, hi) of one span of timed work, and the
// scenario runs it completed.
type segRange struct{ lo, hi, runs int }

// clock cuts timed work into segments and takes reference chunks between
// them. Calibration happens once all chunks are in, in calibrated, since a
// segment's window reaches chunks taken after it.
type clock struct {
	kernel *refKernel
	seq    uint64 // seeds the chunks' jitter streams
	sink   uint64 // the chunks' checksums, so no run is dead code

	origin     time.Time
	chunks     []float64 // chunk durations, ns, in the order taken
	chunkAt    []float64 // when each chunk ended, ns since origin
	segs       []segment
	segStart   float64 // start of the segment in progress
	lastChunk  float64 // end of the last chunk
	refTotalNS float64 // host time spent in chunks
}

func newClock() *clock {
	return &clock{kernel: newRefKernel(), origin: time.Now()}
}

func (c *clock) now() float64 { return float64(time.Since(c.origin)) }

// chunk runs one reference chunk and records its duration. A short untimed
// run first brings the kernel's code and data back into cache. Every run
// draws its own jitter stream: repeating one stream lets the branch
// predictor learn it, and the chunk would then run fastest when nothing ran
// between chunks, slower after a workload step of any kind.
func (c *clock) chunk() {
	c.seq += 2
	c.sink ^= c.kernel.run(refEvents/4, c.seq)
	t0 := c.now()
	c.sink ^= c.kernel.run(refEvents, c.seq+1)
	t1 := c.now()
	c.chunks = append(c.chunks, t1-t0)
	c.chunkAt = append(c.chunkAt, t1)
	c.refTotalNS += t1 - t0
	c.lastChunk = t1
}

// start begins a span of timed work with a chunk, and returns the index of
// its first segment.
func (c *clock) start() int {
	c.chunk()
	c.segStart = c.now()
	return len(c.segs)
}

// mark ends the segment in progress, of kind, and starts the next one. It
// takes a chunk first when refEvery has passed since the last, or when
// force is set.
func (c *clock) mark(kind segKind, force bool) {
	now := c.now()
	c.segs = append(c.segs, segment{startNS: c.segStart, endNS: now, ref: len(c.chunks) - 1, kind: kind})
	if force || now-c.lastChunk >= float64(refEvery) {
		c.chunk()
		// A segment is calibrated around the chunk right after it when
		// there is one.
		c.segs[len(c.segs)-1].ref = len(c.chunks) - 1
	}
	c.segStart = c.now()
}

// stop ends a span with a segment of kind segOther and a chunk, and returns
// the index one past its last segment.
func (c *clock) stop() int {
	c.mark(segOther, true)
	return len(c.segs)
}

// calibrated returns each segment's calibrated time in nanoseconds. A
// segment's window is the refWindow chunks on each side of its own, widened
// to every chunk taken within the segment's duration before its start or
// after its end: a long step such as a Train call has no chunk inside it,
// so the host's speed over it is judged from as long a stretch around it.
func (c *clock) calibrated() []float64 {
	out := make([]float64, len(c.segs))
	var window []float64
	for i, s := range c.segs {
		d := s.endNS - s.startNS
		lo, hi := max(0, s.ref-refWindow), min(len(c.chunks), s.ref+refWindow+1)
		for lo > 0 && c.chunkAt[lo-1] >= s.startNS-d {
			lo--
		}
		for hi < len(c.chunks) && c.chunkAt[hi] <= s.endNS+d {
			hi++
		}
		window = append(window[:0], c.chunks[lo:hi]...)
		sort.Float64s(window)
		out[i] = d * refNominalNS / window[len(window)/2]
	}
	return out
}

// wallNS returns the raw wall time of segments [lo, hi), chunks excluded.
func (c *clock) wallNS(lo, hi int) float64 {
	var sum float64
	for _, s := range c.segs[lo:hi] {
		sum += s.endNS - s.startNS
	}
	return sum
}
