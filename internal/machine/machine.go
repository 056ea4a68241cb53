package machine

import (
	"fmt"

	"nmo/internal/isa"
	"nmo/internal/memsim"
	"nmo/internal/sim"
)

// Probe observes every operation executed on a core and may charge
// extra cycles to it (interrupt time). The perf subsystem's events
// implement this interface.
type Probe interface {
	OnOp(now sim.Cycles, op *isa.Op, lat uint32, level uint8, tlbMiss, remote bool) sim.Cycles
}

// MarkerFunc receives annotation pseudo-ops (nmo_start / nmo_stop /
// alloc updates) as the cores execute them.
type MarkerFunc func(core int, now sim.Cycles, op *isa.Op)

// TickFunc is called once per quantum with the quantum's end time;
// collectors (bandwidth, capacity) subsample from here.
type TickFunc func(now sim.Cycles)

// CoreStats summarizes one core's execution.
type CoreStats struct {
	Cycles  sim.Cycles // local completion time
	Ops     uint64     // operations executed (markers excluded)
	MemOps  uint64     // architectural memory accesses (block = lines)
	Flops   uint64     // floating-point operations (SIMD lanes)
	Levels  [memsim.NumLevels]uint64
	TLBMiss uint64
}

// core is one simulated hardware thread.
type core struct {
	id     int
	hier   *memsim.Hierarchy
	stream isa.Stream
	probes []Probe

	cycles sim.Cycles
	done   bool

	// retireAt is the completion time of the youngest long-latency
	// operation: retirement is in-order, so any operation issued while
	// a miss is outstanding completes no earlier than the miss. SPE
	// tracks sampled operations to *completion*, which is why, on a
	// bandwidth-saturated core, even cheap operations show hundreds of
	// cycles of tracked latency — the mechanism behind the paper's
	// sample-collision collapse at small sampling periods (§VII-A).
	retireAt sim.Cycles

	buf    []isa.Op
	bufPos int
	bufLen int

	stats CoreStats
}

// Machine is the simulated platform.
type Machine struct {
	spec  Spec
	cores []*core
	slc   *memsim.Cache
	numa  *memsim.NUMADomain // main memory

	now      sim.Cycles
	markerFn MarkerFunc
	ticks    []TickFunc

	rss    uint64 // current resident set, from alloc/free markers
	maxRSS uint64
}

// New constructs a machine. Zero spec fields fall back to the Altra
// defaults. A core's private caches, TLB and op buffer are built when
// Run first gives it a stream, so idle cores of a large spec cost
// nothing.
func New(spec Spec) *Machine {
	spec = spec.normalize()
	m := &Machine{
		spec: spec,
		slc:  memsim.NewCache(spec.SLC),
		numa: memsim.NewNUMADomain(spec.NUMA, spec.DRAM),
	}
	m.cores = make([]*core, spec.Cores)
	for i := range m.cores {
		m.cores[i] = &core{id: i}
	}
	return m
}

// build gives core c its private hierarchy and op buffer.
func (m *Machine) build(c *core) {
	spec := m.spec
	tlb := memsim.CacheConfig{SizeBytes: spec.TLBEntries * spec.PageBytes,
		LineBytes: spec.PageBytes, Ways: spec.TLBEntries}
	c.hier = &memsim.Hierarchy{
		L1:  memsim.NewCache(spec.L1),
		L2:  memsim.NewCache(spec.L2),
		TLB: memsim.NewCache(tlb),
		SLC: m.slc,
		Mem: m.numa,
		// Cores split evenly across sockets.
		NodeID: c.id * len(m.numa.Nodes()) / spec.Cores,
		Lat:    spec.Lat,
	}
	c.buf = make([]isa.Op, 4096)
}

// NUMA returns the main-memory domain (never nil; one node unless
// spec.NUMA configures more).
func (m *Machine) NUMA() *memsim.NUMADomain { return m.numa }

// Spec returns the platform description.
func (m *Machine) Spec() Spec { return m.spec }

// Now returns the global (quantum-aligned) simulated time.
func (m *Machine) Now() sim.Cycles { return m.now }

// RSS returns the current resident set size as reported by the
// workload's alloc/free markers, and the high-water mark.
func (m *Machine) RSS() (current, max uint64) { return m.rss, m.maxRSS }

// AttachProbe registers a per-op probe on a core.
func (m *Machine) AttachProbe(coreID int, p Probe) error {
	if coreID < 0 || coreID >= len(m.cores) {
		return fmt.Errorf("machine: core %d out of range (have %d)", coreID, len(m.cores))
	}
	m.cores[coreID].probes = append(m.cores[coreID].probes, p)
	return nil
}

// ClearProbes removes all probes (between baseline and profiled runs).
func (m *Machine) ClearProbes() {
	for _, c := range m.cores {
		c.probes = nil
	}
}

// SetMarkerFunc registers the annotation receiver.
func (m *Machine) SetMarkerFunc(fn MarkerFunc) { m.markerFn = fn }

// OnTick registers a per-quantum callback.
func (m *Machine) OnTick(fn TickFunc) { m.ticks = append(m.ticks, fn) }

// ClearTicks removes all per-quantum callbacks (between profiling
// sessions on a reused machine).
func (m *Machine) ClearTicks() { m.ticks = nil }

// RunResult summarizes a completed run.
type RunResult struct {
	// Wall is the completion time: the latest core finish time.
	Wall sim.Cycles
	// Cores holds per-core statistics for cores that ran a stream.
	Cores []CoreStats
	// TotalOps / TotalMemOps / TotalFlops aggregate over cores.
	TotalOps    uint64
	TotalMemOps uint64
	TotalFlops  uint64
	// DRAMBytes is total memory traffic.
	DRAMBytes uint64
	// MaxRSS is the workload's reported high-water resident set.
	MaxRSS uint64
}

// Run executes one stream per core (streams[i] on core i; nil entries
// idle). It resets per-run state (core clocks, caches, traffic
// counters) but keeps probes and callbacks attached.
func (m *Machine) Run(streams []isa.Stream) (RunResult, error) {
	if len(streams) > len(m.cores) {
		return RunResult{}, fmt.Errorf("machine: %d streams for %d cores",
			len(streams), len(m.cores))
	}
	m.reset()
	active := 0
	for i, s := range streams {
		c := m.cores[i]
		c.stream = s
		if s == nil {
			c.done = true
			continue
		}
		if c.hier == nil {
			m.build(c)
		}
		active++
	}
	for i := len(streams); i < len(m.cores); i++ {
		m.cores[i].done = true
	}
	if active == 0 {
		return RunResult{}, fmt.Errorf("machine: no streams to run")
	}

	running := active
	for running > 0 {
		qEnd := m.now + m.spec.Quantum
		for _, c := range m.cores {
			if c.done {
				continue
			}
			if m.runCore(c, qEnd) {
				running--
			}
		}
		m.now = qEnd
		for _, f := range m.ticks {
			f(m.now)
		}
	}

	res := RunResult{MaxRSS: m.maxRSS, DRAMBytes: m.numa.TotalBytes()}
	for i, s := range streams {
		if s == nil {
			continue
		}
		c := m.cores[i]
		c.stats.Levels = c.hier.LevelCounts()
		res.Cores = append(res.Cores, c.stats)
		res.TotalOps += c.stats.Ops
		res.TotalMemOps += c.stats.MemOps
		res.TotalFlops += c.stats.Flops
		if c.stats.Cycles > res.Wall {
			res.Wall = c.stats.Cycles
		}
	}
	return res, nil
}

// reset prepares per-run state.
func (m *Machine) reset() {
	m.now = 0
	m.rss, m.maxRSS = 0, 0
	m.slc.Reset()
	m.numa.Reset()
	for _, c := range m.cores {
		if c.hier != nil {
			c.hier.Reset()
		}
		c.cycles = 0
		c.retireAt = 0
		c.done = false
		c.stream = nil
		c.bufPos, c.bufLen = 0, 0
		c.stats = CoreStats{}
	}
}

// runCore advances one core to qEnd. Returns true when the core's
// stream finished during this quantum.
func (m *Machine) runCore(c *core, qEnd sim.Cycles) (finished bool) {
	// A core that stalled past the quantum boundary (long DRAM queue,
	// IRQ charge) resumes only once time catches up.
	for c.cycles < qEnd {
		if c.bufPos == c.bufLen {
			c.bufLen = c.stream.Fill(c.buf)
			c.bufPos = 0
			if c.bufLen == 0 {
				c.done = true
				c.stats.Cycles = c.cycles
				return true
			}
		}
		op := &c.buf[c.bufPos]
		c.bufPos++
		m.execOp(c, op)
	}
	return false
}

// execOp executes a single operation on core c, charging cycle costs
// and invoking probes.
func (m *Machine) execOp(c *core, op *isa.Op) {
	if op.Kind == isa.KindMarker {
		if op.Marker == isa.MarkerAlloc || op.Marker == isa.MarkerFree {
			m.rss = op.Addr
			if m.rss > m.maxRSS {
				m.maxRSS = m.rss
			}
		}
		if m.markerFn != nil {
			m.markerFn(c.id, c.cycles, op)
		}
		return
	}

	var lat uint32
	var level uint8
	var tlbMiss, remote bool
	var cost sim.Cycles

	switch op.Kind {
	case isa.KindLoad, isa.KindStore:
		r := c.hier.Access(c.cycles, op.Addr, op.Size, op.Kind.IsWrite())
		lat, level, tlbMiss, remote = r.Latency, uint8(r.Level), r.TLBMiss, r.Remote
		if r.TLBMiss {
			c.stats.TLBMiss++
		}
		c.stats.MemOps++
		// Overlap model: the unloaded part of a miss (device latency,
		// tail) is overlapped MLP-wide by out-of-order execution;
		// queue wait is free up to the hide window (prefetch depth),
		// and the excess beyond it stalls the core — but that stall is
		// also shared by the MLP outstanding misses that wait
		// concurrently, so it is amortized the same way. This negative
		// feedback is what pins the DRAM queue near the hide window
		// under saturation (DESIGN.md §4).
		unloaded := lat - r.WaitCycles
		if hide := m.spec.DRAM.HideCycles; hide > 0 && unloaded > hide {
			unloaded = hide
		}
		cost = sim.Cycles(1 + (unloaded+r.StallCycles)/m.spec.MLP)
	case isa.KindBlockLoad, isa.KindBlockStore:
		r := c.hier.Stream(c.cycles, op.Size, op.Kind.IsWrite())
		lat, level = r.Latency, uint8(r.Level)
		lines := uint64(op.Size) / 64
		if lines == 0 {
			lines = 1
		}
		c.stats.MemOps += lines
		// A block transfer occupies the core for its full completion
		// latency (wire time + queue wait are inside lat).
		cost = sim.Cycles(lat)
	case isa.KindSIMD:
		c.stats.Flops += 4 // 4 lanes per vector op
		cost, lat = 1, 1
	case isa.KindDelay:
		// Bulk compute: op.Addr cycles of scalar work in one op.
		cost, lat = sim.Cycles(op.Addr), 1
		if op.Addr > 1 {
			c.stats.Ops += op.Addr - 1 // the final ++ adds the last one
		}
	default: // ALU, branch
		cost, lat = 1, 1
	}

	c.stats.Ops++
	now := c.cycles

	// In-order retirement: this op completes when both its own
	// pipeline latency has elapsed and every older op has retired.
	completion := now + sim.Cycles(lat)
	if c.retireAt > completion {
		completion = c.retireAt
	}
	c.retireAt = completion
	tracked := uint32(completion - now)

	// Reorder-buffer limit: when the retirement backlog exceeds the
	// ROB window, the frontend stalls until it drains back under.
	if rob := m.spec.ROBWindow; rob > 0 && tracked > rob {
		cost += sim.Cycles(tracked - rob)
	}

	c.cycles += cost
	for _, p := range c.probes {
		c.cycles += p.OnOp(now, op, tracked, level, tlbMiss, remote)
	}
}
