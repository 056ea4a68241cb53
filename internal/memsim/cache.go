// Package memsim implements the memory hierarchy of the simulated
// machine: per-core L1d and L2 set-associative caches, a shared system
// level cache (SLC), a per-core TLB (a one-set Cache over pages), and
// main memory as a NUMA domain of DRAM models, each with its own
// bandwidth budget (one node on single-socket machines).
//
// The geometry defaults mirror Table II of the paper (Ampere Altra
// Max: 64 KB L1d and 1 MB L2 per core, 16 MB SLC, DDR4 at 200 GB/s,
// 64 KB pages). The latency outcomes of this hierarchy are what drive
// every headline result of the reproduction: SPE sample collisions
// happen when the tracked operation's latency exceeds the sampling
// interval, so the latency distribution of each workload determines
// its collision curve (DESIGN.md §4).
package memsim

import "math"

// Level identifies where in the hierarchy an access was satisfied.
// The values double as the SPE data-source encoding used by the
// packet encoder (internal/spepkt).
type Level uint8

const (
	// LevelL1 means the access hit in the core's L1 data cache.
	LevelL1 Level = iota
	// LevelL2 means the access hit in the core's private L2.
	LevelL2
	// LevelSLC means the access hit in the shared system level cache.
	LevelSLC
	// LevelDRAM means the access went to main memory.
	LevelDRAM

	// NumLevels is the number of hierarchy levels.
	NumLevels
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelSLC:
		return "SLC"
	case LevelDRAM:
		return "DRAM"
	}
	return "?"
}

// Cache is a set-associative cache with LRU replacement. It tracks
// only tags (no data), which is all a profiling study needs. The zero
// value is not usable; construct with NewCache.
//
// A fully associative TLB is the one-set case: LineBytes is the page
// size and Ways the entry count (see Hierarchy.TLB).
//
// The implementation is tuned for the inner loop. Recency is a 32-bit
// last-use stamp per entry drawn from one clock per cache, so a hit is
// a single store and only a miss scans the set for its oldest stamp.
// A repeat of the previous access returns before any scan: that line
// is already the newest of its set, so there is nothing to update.
// When the clock would wrap, every set's stamps are rewritten as their
// recency ranks, which keeps the LRU order exactly.
type Cache struct {
	ways     int
	sets     int
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets*ways entries; 0 = invalid
	stamp    []uint32 // last use per entry; 0 = invalid, valid ≥ 1
	clock    uint32   // newest stamp handed out
	last     uint64   // tag of the previous access; 0 = none

	hits   uint64
	misses uint64
}

// maxWays bounds the associativity; renormalize ranks one set in a
// stack array of this size.
const maxWays = 255

// CacheConfig describes a cache's geometry.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line size (power of two)
	// Ways is the associativity, at most 255: the clock-wrap rewrite
	// ranks a set in a fixed-size stack array.
	Ways int
}

// NewCache constructs a cache. It panics on invalid geometry since
// configurations are static (preset machine specs), not user input.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("memsim: line size must be a positive power of two")
	}
	if cfg.Ways <= 0 || cfg.Ways > maxWays {
		panic("memsim: ways must be in [1,255]")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("memsim: set count must be a positive power of two")
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	return &Cache{
		ways:     cfg.Ways,
		sets:     sets,
		lineBits: lineBits,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*cfg.Ways),
		stamp:    make([]uint32, sets*cfg.Ways),
	}
}

// Access looks up addr, updating LRU state. On a miss the line is
// installed (allocate-on-miss for both reads and writes, matching the
// write-allocate policy of the Neoverse hierarchy). It returns whether
// the access hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	// Tag 0 marks an invalid entry, so bias stored tags by +1.
	tag := line + 1
	if tag == c.last {
		c.hits++
		return true
	}
	c.last = tag
	if c.clock == math.MaxUint32 {
		c.renormalize()
	}
	c.clock++
	set := int(line&c.setMask) * c.ways
	ways := c.tags[set : set+c.ways]
	stamps := c.stamp[set : set+c.ways]
	for i, t := range ways {
		if t == tag {
			stamps[i] = c.clock
			c.hits++
			return true
		}
	}
	c.misses++
	// Evict the first way with the smallest stamp: the first invalid
	// way if there is one (stamp 0), else the LRU line.
	victim := 0
	for i, s := range stamps {
		if s < stamps[victim] {
			victim = i
		}
	}
	ways[victim] = tag
	stamps[victim] = c.clock
	return false
}

// renormalize rewrites each set's valid stamps as their recency ranks
// (1 = oldest) and restarts the clock above them, so the clock never
// wraps and every set keeps its LRU order. Ranks are computed from a
// copy of the set's stamps: ranking in place would compare new ranks
// against old stamps.
func (c *Cache) renormalize() {
	var old [maxWays]uint32
	for set := 0; set < len(c.stamp); set += c.ways {
		stamps := c.stamp[set : set+c.ways]
		copy(old[:], stamps)
		for i, s := range old[:c.ways] {
			if s == 0 {
				continue
			}
			rank := uint32(1)
			for _, o := range old[:c.ways] {
				if o != 0 && o < s {
					rank++
				}
			}
			stamps[i] = rank
		}
	}
	c.clock = uint32(c.ways)
}

// Probe reports whether addr is present without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineBits
	tag := line + 1
	set := int(line&c.setMask) * c.ways
	for _, t := range c.tags[set : set+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// Stats returns cumulative hit/miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Reset invalidates the cache and clears statistics.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.stamp)
	c.clock, c.last = 0, 0
	c.hits, c.misses = 0, 0
}

// LineBytes returns the cache line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }
