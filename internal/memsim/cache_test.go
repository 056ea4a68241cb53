package memsim

import (
	"math"
	"testing"
	"testing/quick"

	"nmo/internal/sim"
	"nmo/internal/xrand"
)

func TestCacheGeometry(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4})
	if got := c.Sets(); got != 256 {
		t.Errorf("Sets() = %d, want 256", got)
	}
	if got := c.Ways(); got != 4 {
		t.Errorf("Ways() = %d, want 4", got)
	}
	if got := c.LineBytes(); got != 64 {
		t.Errorf("LineBytes() = %d, want 64", got)
	}
}

func TestCacheInvalidGeometryPanics(t *testing.T) {
	cases := []CacheConfig{
		{SizeBytes: 64 << 10, LineBytes: 48, Ways: 4},   // non-pow2 line
		{SizeBytes: 64 << 10, LineBytes: 64, Ways: 0},   // zero ways
		{SizeBytes: 0, LineBytes: 64, Ways: 4},          // zero sets
		{SizeBytes: 3 * 64, LineBytes: 64, Ways: 1},     // non-pow2 sets
		{SizeBytes: 256 * 64, LineBytes: 64, Ways: 256}, // above the 255-way bound
		{SizeBytes: 300 * 64, LineBytes: 64, Ways: 300}, // 8-bit LRU ranks would wrap
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%+v) did not panic", cfg)
				}
			}()
			NewCache(cfg)
		}()
	}
}

// TestCacheMaxWaysLRU: at the 255-way bound a fully associative cache
// still evicts exactly the least recently used line.
func TestCacheMaxWaysLRU(t *testing.T) {
	const ways = 255
	c := NewCache(CacheConfig{SizeBytes: ways * 64, LineBytes: 64, Ways: ways})
	for i := uint64(0); i < ways; i++ {
		c.Access(i * 64)
	}
	c.Access(0)         // line 1 is now LRU
	c.Access(ways * 64) // evicts line 1
	if c.Probe(64) {
		t.Error("LRU line 1 survived eviction")
	}
	for i := uint64(2); i <= ways; i++ {
		if !c.Probe(i * 64) {
			t.Fatalf("line %d evicted instead of the LRU line", i)
		}
	}
	if !c.Probe(0) {
		t.Error("recently touched line 0 evicted")
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4})
	if c.Access(0x1000) {
		t.Fatal("first access unexpectedly hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access to same line missed")
	}
	if !c.Access(0x1038) {
		t.Fatal("access to same line (different offset) missed")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (2, 1)", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, line 64: addresses 64*sets apart map to the same set.
	c := NewCache(CacheConfig{SizeBytes: 2 * 64 * 8, LineBytes: 64, Ways: 2})
	sets := uint64(c.Sets())
	stride := 64 * sets
	a, b, x := uint64(0), stride, 2*stride

	c.Access(a) // miss, install
	c.Access(b) // miss, install; set now {a, b}, a is LRU
	c.Access(a) // hit; b becomes LRU
	c.Access(x) // miss, must evict b
	if !c.Probe(a) {
		t.Error("a was evicted; want b evicted (LRU)")
	}
	if c.Probe(b) {
		t.Error("b still resident; want b evicted (LRU)")
	}
	if !c.Probe(x) {
		t.Error("x not resident after install")
	}
}

func TestCacheProbeDoesNotModify(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4})
	c.Probe(0x2000)
	if c.Access(0x2000) {
		t.Error("Probe installed the line; Access should have missed")
	}
	hits, misses := c.Stats()
	if hits != 0 || misses != 1 {
		t.Errorf("stats = (%d, %d), want (0, 1): Probe must not count", hits, misses)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4})
	c.Access(0x40)
	c.Access(0x40)
	c.Reset()
	hits, misses := c.Stats()
	if hits != 0 || misses != 0 {
		t.Errorf("stats after Reset = (%d, %d), want (0, 0)", hits, misses)
	}
	if c.Access(0x40) {
		t.Error("line survived Reset")
	}
}

// Property: a working set no larger than the cache, accessed twice,
// gives a perfect second pass (LRU never evicts live lines when the
// set fits).
func TestCacheFittingWorkingSetProperty(t *testing.T) {
	f := func(seed uint32, nLines uint8) bool {
		c := NewCache(CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8})
		// Sequential lines always fit if count <= capacity.
		n := int(nLines)%(32<<10/64) + 1
		base := uint64(seed) << 6
		for i := 0; i < n; i++ {
			c.Access(base + uint64(i)*64)
		}
		for i := 0; i < n; i++ {
			if !c.Access(base + uint64(i)*64) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: hits+misses always equals the number of Access calls.
func TestCacheStatsConservationProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := NewCache(CacheConfig{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2})
		for _, a := range addrs {
			c.Access(uint64(a))
		}
		h, m := c.Stats()
		return h+m == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// lruModel is the reference LRU cache: per set, the resident lines in
// recency order, newest first. A hit moves its line to the front; a
// miss fills a free way if the set has one, else evicts the back of
// the list.
type lruModel struct {
	ways     int
	lineBits uint
	sets     [][]uint64
	hits     uint64
	misses   uint64
}

func newLRUModel(cfg CacheConfig) *lruModel {
	m := &lruModel{ways: cfg.Ways, sets: make([][]uint64, cfg.SizeBytes/cfg.LineBytes/cfg.Ways)}
	for 1<<m.lineBits < cfg.LineBytes {
		m.lineBits++
	}
	return m
}

func (m *lruModel) list(addr uint64) (line uint64, set *[]uint64) {
	line = addr >> m.lineBits
	return line, &m.sets[line%uint64(len(m.sets))]
}

func (m *lruModel) access(addr uint64) bool {
	line, set := m.list(addr)
	s := *set
	for i, l := range s {
		if l == line {
			copy(s[1:i+1], s[:i])
			s[0] = line
			m.hits++
			return true
		}
	}
	m.misses++
	if len(s) < m.ways {
		s = append(s, 0)
	}
	copy(s[1:], s[:len(s)-1])
	s[0] = line
	*set = s
	return false
}

func (m *lruModel) probe(addr uint64) bool {
	line, set := m.list(addr)
	for _, l := range *set {
		if l == line {
			return true
		}
	}
	return false
}

func (m *lruModel) reset() {
	for i := range m.sets {
		m.sets[i] = m.sets[i][:0]
	}
	m.hits, m.misses = 0, 0
}

// cacheStream returns n addresses over a pool of twice the cache's
// lines, at random offsets within each line. About a quarter of the
// accesses repeat the previous line (the MRU shortcut), and the
// stream comes in runs of 1–8 accesses to one line.
func cacheStream(cfg CacheConfig, seed uint64, n int) []uint64 {
	rng := xrand.New(seed)
	lines := uint64(2 * cfg.SizeBytes / cfg.LineBytes)
	out := make([]uint64, 0, n)
	line := uint64(0)
	for len(out) < n {
		if rng.Intn(4) != 0 {
			line = rng.Uint64n(lines)
		}
		for run := 1 + rng.Intn(8); run > 0 && len(out) < n; run-- {
			out = append(out, line*uint64(cfg.LineBytes)+rng.Uint64n(uint64(cfg.LineBytes)))
		}
	}
	return out
}

var modelGeometries = []CacheConfig{
	{SizeBytes: 64 * 64, LineBytes: 64, Ways: 1},         // direct mapped, 64 sets
	{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4},         // 16 sets
	{SizeBytes: 48 << 16, LineBytes: 64 << 10, Ways: 48}, // Altra TLB
	{SizeBytes: 64 << 12, LineBytes: 4 << 10, Ways: 64},  // Ice Lake TLB
	{SizeBytes: 2 * 255 * 64, LineBytes: 64, Ways: 255},  // the bound, 2 sets
}

// TestCacheMatchesLRUModel checks Cache against the naive recency-list
// LRU on random streams with repeated lines and occasional Resets.
// Every Reset is followed by the line accessed just before it, which
// must miss: a repeat shortcut that survived Reset would report a hit
// on an empty cache.
func TestCacheMatchesLRUModel(t *testing.T) {
	for gi, cfg := range modelGeometries {
		c, m := NewCache(cfg), newLRUModel(cfg)
		rng := xrand.New(uint64(gi) + 100)
		stream := cacheStream(cfg, uint64(gi)+1, 200_000)
		prev := stream[0]
		for i, addr := range stream {
			if i > 0 && rng.Intn(5000) == 0 {
				c.Reset()
				m.reset()
				addr = prev
			}
			prev = addr
			got, want := c.Access(addr), m.access(addr)
			if got != want {
				t.Fatalf("%+v: access %d (%#x) hit = %v, model %v", cfg, i, addr, got, want)
			}
			other := stream[rng.Intn(len(stream))]
			if c.Probe(addr) != m.probe(addr) || c.Probe(other) != m.probe(other) {
				t.Fatalf("%+v: access %d: Probe disagrees with the model", cfg, i)
			}
		}
		if h, ms := c.Stats(); h != m.hits || ms != m.misses {
			t.Errorf("%+v: Stats() = (%d, %d), model (%d, %d)", cfg, h, ms, m.hits, m.misses)
		}
	}
}

// TestCacheClockWrap drives a cache whose stamp clock starts just
// below the 32-bit wrap alongside a fresh one: the rewrite of stamps to
// ranks at the wrap must leave every later hit and miss unchanged. The
// wrap comes after about a thousand stamped accesses, once the sets are
// full and hits and evictions have put their stamps out of way order;
// a cold set's stamps rise with the way index, and even a wrong
// ranking would keep that order.
func TestCacheClockWrap(t *testing.T) {
	const start = math.MaxUint32 - 1000
	for _, cfg := range []CacheConfig{
		{SizeBytes: 16 * 64, LineBytes: 64, Ways: 4},         // 4 sets x 4 ways
		{SizeBytes: 48 << 16, LineBytes: 64 << 10, Ways: 48}, // one-set TLB
	} {
		wrapped, fresh := NewCache(cfg), NewCache(cfg)
		wrapped.clock = start
		for i, addr := range cacheStream(cfg, 7, 400_000) {
			if a, b := wrapped.Access(addr), fresh.Access(addr); a != b {
				t.Fatalf("%+v: access %d (%#x) hit = %v across the wrap, %v without", cfg, i, addr, a, b)
			}
		}
		if wrapped.clock >= start {
			t.Errorf("%+v: clock %d never wrapped", cfg, wrapped.clock)
		}
	}
}

// newTLB builds a fully associative TLB the way machine.New does: a
// one-set Cache with one way per entry and page-sized lines.
func newTLB(entries, pageBytes int) *Cache {
	return NewCache(CacheConfig{SizeBytes: entries * pageBytes, LineBytes: pageBytes, Ways: entries})
}

func TestTLBHitMiss(t *testing.T) {
	tlb := newTLB(4, 64<<10)
	if tlb.Sets() != 1 || tlb.Ways() != 4 {
		t.Fatalf("geometry = %d sets x %d ways, want 1 x 4", tlb.Sets(), tlb.Ways())
	}
	if tlb.Access(0) {
		t.Fatal("cold TLB hit")
	}
	if !tlb.Access(0x0FFF) {
		t.Fatal("same-page access missed")
	}
	if tlb.Access(1 << 16) {
		t.Fatal("next-page access hit")
	}
	hits, misses := tlb.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("stats = (%d, %d), want (1, 2)", hits, misses)
	}
}

func TestTLBLRU(t *testing.T) {
	tlb := newTLB(2, 64<<10)
	page := func(i uint64) uint64 { return i << 16 }
	tlb.Access(page(0))
	tlb.Access(page(1))
	tlb.Access(page(0)) // page 1 now LRU
	tlb.Access(page(2)) // evicts page 1
	if tlb.Access(page(1)) {
		t.Error("page 1 should have been evicted")
	}
	// Note: accessing page 1 above installed it again.
	if !tlb.Access(page(1)) {
		t.Error("page 1 should be resident after reinstall")
	}
}

func TestDRAMBandwidthAccounting(t *testing.T) {
	d := NewDRAM(DRAMConfig{BaseLatency: 100, PeakBytesPerCycle: 64, TailProb: -1})
	r := d.Access(0, 64, false)
	if r.Latency != 101 { // base + 1 cycle of service
		t.Errorf("unloaded latency = %d, want 101", r.Latency)
	}
	// Back-to-back accesses at time 0 queue behind each other.
	var last DRAMResult
	for i := 0; i < 1000; i++ {
		last = d.Access(0, 64, i%2 == 0)
	}
	if last.Latency <= 101 {
		t.Errorf("queued latency = %d, want > 101", last.Latency)
	}
	if d.Stalled() == 0 {
		t.Error("no stalls recorded despite queueing")
	}
	rd, wr := d.Traffic()
	if rd+wr != d.TotalBytes() || d.TotalBytes() != 1001*64 {
		t.Errorf("traffic = %d+%d bytes, want total %d", rd, wr, 1001*64)
	}
}

func TestDRAMQueueDrainsOverTime(t *testing.T) {
	d := NewDRAM(DRAMConfig{BaseLatency: 100, PeakBytesPerCycle: 64, TailProb: -1})
	for i := 0; i < 100; i++ {
		d.Access(0, 64, false) // builds a 100-cycle queue at t=0
	}
	// An access far in the future sees an idle device again.
	r := d.Access(1_000_000, 64, false)
	if r.Latency != 101 || r.StallCycles != 0 {
		t.Errorf("idle-again access = %+v, want latency 101, no stall", r)
	}
}

func TestDRAMThroughputConservation(t *testing.T) {
	// N bytes through a rate-R device must occupy >= N/R device time.
	d := NewDRAM(DRAMConfig{BaseLatency: 10, PeakBytesPerCycle: 10, TailProb: -1})
	var lastLat uint32
	for i := 0; i < 10000; i++ {
		lastLat = d.Access(0, 64, false).Latency
	}
	// 640000 bytes at 10 B/cyc = 64000 cycles minimum; the last access
	// must have waited nearly that long.
	if lastLat < 60000 {
		t.Errorf("last latency = %d, want ~64000 (queue must serialize)", lastLat)
	}
}

func TestDRAMStallBeyondHideWindow(t *testing.T) {
	d := NewDRAM(DRAMConfig{BaseLatency: 100, PeakBytesPerCycle: 1, HideCycles: 50, TailProb: -1})
	r1 := d.Access(0, 64, false) // queue 0, no stall
	if r1.StallCycles != 0 {
		t.Errorf("first access stalled: %+v", r1)
	}
	var later DRAMResult
	for i := 0; i < 10; i++ {
		later = d.Access(0, 64, false)
	}
	if later.StallCycles == 0 {
		t.Errorf("deep queue produced no stall: %+v", later)
	}
	if later.StallCycles >= later.Latency {
		t.Error("stall must be smaller than total latency")
	}
}

func TestDRAMTailUnderSaturation(t *testing.T) {
	d := NewDRAM(DRAMConfig{BaseLatency: 150, PeakBytesPerCycle: 1, HideCycles: 100, Seed: 11})
	sawTail := false
	base := 150 + 64 // base + service
	for i := 0; i < 20000; i++ {
		if d.Access(0, 64, false).Latency > uint32(base)*8+uint32(i)*64 {
			sawTail = true
		}
	}
	if !sawTail || d.TailHits() == 0 {
		t.Error("saturated DRAM never drew a tail latency")
	}
	frac := float64(d.TailHits()) / float64(d.Serviced())
	if frac > 0.2 {
		t.Errorf("tail fraction %.2f too large", frac)
	}
}

func TestDRAMTailDisabled(t *testing.T) {
	d := NewDRAM(DRAMConfig{BaseLatency: 150, PeakBytesPerCycle: 64, TailProb: -1})
	for i := 0; i < 50000; i++ {
		if lat := d.Access(sim.Cycles(i*1000), 64, false).Latency; lat != 151 {
			t.Fatalf("latency %d with tail disabled and no contention", lat)
		}
	}
	if d.TailHits() != 0 {
		t.Error("tail hits recorded with tail disabled")
	}
}

func TestDRAMResetRestartsTailStream(t *testing.T) {
	run := func(d *DRAM) []uint32 {
		out := make([]uint32, 5000)
		for i := range out {
			out[i] = d.Access(0, 64, false).Latency
		}
		return out
	}
	d := NewDRAM(DRAMConfig{BaseLatency: 150, PeakBytesPerCycle: 1, Seed: 3})
	a := run(d)
	d.Reset()
	b := run(d)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency stream diverged at %d after Reset", i)
		}
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := newTestHierarchy()

	r := h.Access(0, 0x100000, 8, false)
	if r.Level != LevelDRAM {
		t.Errorf("cold access level = %v, want DRAM", r.Level)
	}
	r = h.Access(0, 0x100000, 8, false)
	if r.Level != LevelL1 {
		t.Errorf("hot access level = %v, want L1", r.Level)
	}
	if r.Latency != h.Lat.L1 {
		t.Errorf("L1 latency = %d, want %d", r.Latency, h.Lat.L1)
	}
	counts := h.LevelCounts()
	if counts[LevelL1] != 1 || counts[LevelDRAM] != 1 {
		t.Errorf("level counts = %v", counts)
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	h := newTestHierarchy()
	if !(h.Lat.L1 < h.Lat.L2 && h.Lat.L2 < h.Lat.SLC) {
		t.Fatal("latency config not monotone")
	}
	// DRAM access must cost more than an SLC hit.
	r := h.Access(0, 0x900000, 8, false)
	if r.Latency <= h.Lat.SLC {
		t.Errorf("DRAM access latency %d not greater than SLC hit %d", r.Latency, h.Lat.SLC)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := newTestHierarchy()
	// Fill L1 far beyond capacity with a stream, then revisit an early
	// line: it should have been pushed to L2 (inclusive-ish behaviour
	// emerges because L2 also installed it on the initial miss).
	for i := uint64(0); i < 4096; i++ {
		h.Access(0, i*64, 8, false)
	}
	r := h.Access(0, 0, 8, false)
	if r.Level == LevelL1 {
		t.Fatal("line unexpectedly still in L1 after 256 KB stream")
	}
	if r.Level != LevelL2 && r.Level != LevelSLC {
		t.Errorf("level = %v, want L2 or SLC", r.Level)
	}
}

func TestHierarchyStreamBypassesCaches(t *testing.T) {
	h := newTestHierarchy()
	h.Stream(0, 1<<20, true)
	if h.L1.Probe(0) {
		t.Error("Stream polluted L1")
	}
	_, w := h.Mem.Nodes()[0].Traffic()
	if w != 1<<20 {
		t.Errorf("DRAM write traffic = %d, want %d", w, 1<<20)
	}
}

func TestHierarchyTLBPenalty(t *testing.T) {
	h := newTestHierarchy()
	r1 := h.Access(0, 0, 8, false) // TLB miss + DRAM
	if !r1.TLBMiss {
		t.Fatal("cold access did not miss TLB")
	}
	h.Access(0, 0, 8, false) // warm
	r3 := h.Access(0, 64, 8, false)
	if r3.TLBMiss {
		t.Error("same-page access missed TLB")
	}
}

func TestHierarchyReset(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0, 0x40, 8, false)
	h.Reset()
	if c := h.LevelCounts(); c != ([NumLevels]uint64{}) {
		t.Errorf("level counts after Reset = %v", c)
	}
	r := h.Access(0, 0x40, 8, false)
	if r.Level == LevelL1 {
		t.Error("L1 survived Reset")
	}
}

func newTestHierarchy() *Hierarchy {
	return &Hierarchy{
		L1:  NewCache(CacheConfig{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4}),
		L2:  NewCache(CacheConfig{SizeBytes: 1 << 20, LineBytes: 64, Ways: 8}),
		TLB: newTLB(48, 64<<10),
		SLC: NewCache(CacheConfig{SizeBytes: 16 << 20, LineBytes: 64, Ways: 16}),
		Mem: NewNUMADomain(NUMAConfig{}, DRAMConfig{BaseLatency: 150, PeakBytesPerCycle: 66, TailProb: -1}),
		Lat: DefaultLatencies(),
	}
}
