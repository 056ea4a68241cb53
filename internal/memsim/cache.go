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
// The implementation is tuned for the inner loop: a lookup on a
// 4–8 way cache is a handful of comparisons over a contiguous tag
// slice, with 8-bit LRU ranks updated in place.
type Cache struct {
	ways     int
	sets     int
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets*ways entries; 0 = invalid
	lru      []uint8  // rank per entry; 0 = most recently used

	hits   uint64
	misses uint64
}

// CacheConfig describes a cache's geometry.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line size (power of two)
	Ways      int // associativity, at most 255 (LRU ranks are 8-bit)
}

// NewCache constructs a cache. It panics on invalid geometry since
// configurations are static (preset machine specs), not user input.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("memsim: line size must be a positive power of two")
	}
	if cfg.Ways <= 0 || cfg.Ways > 255 {
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
	c := &Cache{
		ways:     cfg.Ways,
		sets:     sets,
		lineBits: lineBits,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*cfg.Ways),
		lru:      make([]uint8, sets*cfg.Ways),
	}
	c.initLRU()
	return c
}

// initLRU makes each set's ranks a permutation 0..ways-1 so that touch
// preserves the permutation invariant and eviction always has a unique
// LRU victim.
func (c *Cache) initLRU() {
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			c.lru[s*c.ways+w] = uint8(w)
		}
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
	set := int(line&c.setMask) * c.ways
	ways := c.tags[set : set+c.ways]
	for i, t := range ways {
		if t == tag {
			c.touch(set, i)
			c.hits++
			return true
		}
	}
	c.misses++
	// Evict the LRU way (highest rank).
	victim := 0
	worst := uint8(0)
	lru := c.lru[set : set+c.ways]
	for i, r := range lru {
		if ways[i] == 0 {
			victim = i
			break
		}
		if r >= worst {
			worst = r
			victim = i
		}
	}
	ways[victim] = tag
	c.touch(set, victim)
	return false
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

// touch makes way `hit` the MRU entry of its set.
func (c *Cache) touch(set, hit int) {
	lru := c.lru[set : set+c.ways]
	h := lru[hit]
	for i := range lru {
		if lru[i] < h {
			lru[i]++
		}
	}
	lru[hit] = 0
}

// Stats returns cumulative hit/miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Reset invalidates the cache and clears statistics.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
	}
	c.initLRU()
	c.hits, c.misses = 0, 0
}

// LineBytes returns the cache line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }
