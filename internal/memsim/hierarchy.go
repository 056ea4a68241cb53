package memsim

import "nmo/internal/sim"

// Hierarchy bundles one core's private caches and TLB with the shared
// SLC and memory, and computes the (level, latency) outcome of a
// memory access. One Hierarchy exists per core; SLC and memory are
// shared across all of them (the machine runs cores round-robin within
// a quantum, so no locking is needed).
type Hierarchy struct {
	L1 *Cache
	L2 *Cache
	// TLB is the fully associative data TLB: a one-set Cache whose
	// lines are pages and whose ways are entries. A miss adds a
	// translation latency that the SPE unit reports in the
	// translation-latency counter packet (0x9a). Irregular workloads
	// (CFD gathers, BFS frontier hops) take many more TLB misses than
	// streaming ones, which widens their latency distribution — one of
	// the effects behind the per-workload collision differences in
	// Fig. 8c.
	TLB *Cache

	SLC *Cache      // shared
	Mem *NUMADomain // shared; one node on single-socket machines
	// NodeID is the socket this core belongs to.
	NodeID int

	Lat Latencies

	levelCounts [NumLevels]uint64
	remote      uint64
}

// Latencies holds the hit latency (cycles) of each level plus the TLB
// miss penalty. Defaults follow published Neoverse N1 figures.
type Latencies struct {
	L1      uint32 // L1d hit
	L2      uint32 // L2 hit
	SLC     uint32 // system level cache hit
	TLBMiss uint32 // page walk penalty added on TLB miss
}

// DefaultLatencies returns Neoverse-N1-class latency figures.
func DefaultLatencies() Latencies {
	return Latencies{L1: 4, L2: 11, SLC: 43, TLBMiss: 28}
}

// AccessResult describes where an access hit and what it cost.
type AccessResult struct {
	Level Level
	// Latency is the completion latency in cycles (including the TLB
	// penalty and any DRAM queue wait) — the quantity SPE tracks.
	Latency uint32
	// WaitCycles is the DRAM queue wait component of Latency; the
	// core hides it up to the hide window.
	WaitCycles uint32
	// StallCycles is queue wait the issuing core cannot hide and must
	// absorb as execution time.
	StallCycles uint32
	TLBMiss     bool
	// Remote marks accesses served by another NUMA node's memory
	// (reported through the SPE events packet's remote bit).
	Remote bool
}

// Access simulates a load or store of size bytes at addr, issued at
// core time now. Accesses that straddle a cache line are charged as a
// single access to the first line (profiling-grade approximation; the
// line-crossing rate of the workloads here is negligible).
func (h *Hierarchy) Access(now sim.Cycles, addr uint64, size uint32, write bool) AccessResult {
	var res AccessResult
	if !h.TLB.Access(addr) {
		res.TLBMiss = true
		res.Latency += h.Lat.TLBMiss
	}
	switch {
	case h.L1.Access(addr):
		res.Level = LevelL1
		res.Latency += h.Lat.L1
	case h.L2.Access(addr):
		res.Level = LevelL2
		res.Latency += h.Lat.L2
	case h.SLC.Access(addr):
		res.Level = LevelSLC
		res.Latency += h.Lat.SLC
	default:
		res.Level = LevelDRAM
		line := uint32(h.L1.LineBytes())
		if size > line {
			line = size
		}
		var r DRAMResult
		r, res.Remote = h.Mem.Access(now, h.NodeID, addr, line, write)
		res.Latency += h.Lat.SLC + r.Latency
		res.WaitCycles = r.WaitCycles
		res.StallCycles = r.StallCycles
		if res.Remote {
			h.remote++
		}
	}
	h.levelCounts[res.Level]++
	return res
}

// RemoteCount returns how many of this core's DRAM accesses were
// served by a remote NUMA node.
func (h *Hierarchy) RemoteCount() uint64 { return h.remote }

// Stream models a bulk transfer of size bytes that bypasses the
// private caches (non-temporal / page-granular traffic used by the
// phase-level CloudSuite workloads). It consumes DRAM bandwidth and
// returns the transfer latency.
func (h *Hierarchy) Stream(now sim.Cycles, size uint32, write bool) AccessResult {
	r, _ := h.Mem.Access(now, h.NodeID, 0, size, write)
	h.levelCounts[LevelDRAM]++
	return AccessResult{Level: LevelDRAM, Latency: r.Latency,
		WaitCycles: r.WaitCycles, StallCycles: r.StallCycles}
}

// LevelCounts returns how many accesses were satisfied at each level.
func (h *Hierarchy) LevelCounts() [NumLevels]uint64 { return h.levelCounts }

// Reset clears the private structures and level counters. Shared
// structures (SLC, memory) are left untouched; the machine resets
// those.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.TLB.Reset()
	h.levelCounts = [NumLevels]uint64{}
	h.remote = 0
}
