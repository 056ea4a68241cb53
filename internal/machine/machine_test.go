package machine

import (
	"fmt"
	"testing"

	"nmo/internal/isa"
	"nmo/internal/memsim"
	"nmo/internal/sim"
)

func smallSpec(cores int) Spec {
	s := AmpereAltraMax().WithCores(cores)
	s.Quantum = 256
	return s
}

func seqLoads(n int, base, stride uint64) *isa.SliceStream {
	ops := make([]isa.Op, n)
	for i := range ops {
		ops[i] = isa.Op{Kind: isa.KindLoad, Addr: base + uint64(i)*stride, Size: 8, PC: 0x40}
	}
	return &isa.SliceStream{Ops: ops}
}

func TestAmpereSpecMatchesTable2(t *testing.T) {
	s := AmpereAltraMax()
	if s.Cores != 128 {
		t.Errorf("cores = %d, want 128", s.Cores)
	}
	if s.Freq.Hz != 3_000_000_000 {
		t.Errorf("freq = %d, want 3 GHz", s.Freq.Hz)
	}
	if s.L1.SizeBytes != 64<<10 || s.L2.SizeBytes != 1<<20 || s.SLC.SizeBytes != 16<<20 {
		t.Errorf("cache sizes = %d/%d/%d", s.L1.SizeBytes, s.L2.SizeBytes, s.SLC.SizeBytes)
	}
	if s.MemCapacityBytes != 256<<30 {
		t.Errorf("capacity = %d, want 256 GB", s.MemCapacityBytes)
	}
	if s.PageBytes != 64<<10 {
		t.Errorf("page = %d, want 64 KB", s.PageBytes)
	}
	// 200 GB/s at 3 GHz.
	bw := s.DRAM.PeakBytesPerCycle * float64(s.Freq.Hz)
	if bw < 195e9 || bw > 205e9 {
		t.Errorf("peak bandwidth = %.1f GB/s, want ~200", bw/1e9)
	}
}

func TestRunSingleCore(t *testing.T) {
	m := New(smallSpec(2))
	res, err := m.Run([]isa.Stream{seqLoads(10000, 0, 64)})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps != 10000 || res.TotalMemOps != 10000 {
		t.Errorf("ops = %d/%d, want 10000", res.TotalOps, res.TotalMemOps)
	}
	if res.Wall == 0 {
		t.Error("zero wall time")
	}
	if res.DRAMBytes == 0 {
		t.Error("streaming loads produced no DRAM traffic")
	}
	if len(res.Cores) != 1 {
		t.Errorf("core stats = %d entries", len(res.Cores))
	}
}

func TestRunNoStreamsErrors(t *testing.T) {
	m := New(smallSpec(1))
	if _, err := m.Run(nil); err == nil {
		t.Error("Run(nil) succeeded")
	}
	if _, err := m.Run([]isa.Stream{nil}); err == nil {
		t.Error("Run([nil]) succeeded")
	}
	if _, err := m.Run(make([]isa.Stream, 5)); err == nil {
		t.Error("more streams than cores accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() RunResult {
		m := New(smallSpec(4))
		streams := []isa.Stream{
			seqLoads(5000, 0, 64),
			seqLoads(5000, 1<<30, 64),
			seqLoads(5000, 2<<30, 64),
			seqLoads(5000, 3<<30, 64),
		}
		res, err := m.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Wall != b.Wall || a.DRAMBytes != b.DRAMBytes {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestCacheHitsCheaperThanMisses(t *testing.T) {
	m := New(smallSpec(1))
	// Hot loop: 10k accesses to one line.
	hot := make([]isa.Op, 10000)
	for i := range hot {
		hot[i] = isa.Op{Kind: isa.KindLoad, Addr: 0x1000, Size: 8}
	}
	resHot, _ := m.Run([]isa.Stream{&isa.SliceStream{Ops: hot}})
	resCold, _ := m.Run([]isa.Stream{seqLoads(10000, 0, 4096)})
	if resHot.Wall >= resCold.Wall {
		t.Errorf("hot %d !< cold %d", resHot.Wall, resCold.Wall)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// Many cores streaming concurrently must stay at or below the
	// configured peak bandwidth.
	spec := smallSpec(16)
	m := New(spec)
	streams := make([]isa.Stream, 16)
	for i := range streams {
		streams[i] = seqLoads(50000, uint64(i)<<32, 64)
	}
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	bpc := float64(res.DRAMBytes) / float64(res.Wall)
	if bpc > spec.DRAM.PeakBytesPerCycle*1.3 {
		t.Errorf("achieved %.1f B/cyc exceeds peak %.1f", bpc, spec.DRAM.PeakBytesPerCycle)
	}
	if res.DRAMBytes < 16*50000*64 {
		t.Errorf("DRAM traffic %d less than the working set", res.DRAMBytes)
	}
}

func TestContentionSlowsCores(t *testing.T) {
	// One core streaming alone vs the same stream with 31 others:
	// 32 streaming cores demand ~82 B/cyc against a 66.7 B/cyc peak,
	// so queueing must lengthen the run.
	solo := New(smallSpec(32))
	resSolo, _ := solo.Run([]isa.Stream{seqLoads(50000, 0, 64)})

	crowd := New(smallSpec(32))
	streams := make([]isa.Stream, 32)
	for i := range streams {
		streams[i] = seqLoads(50000, uint64(i)<<32, 64)
	}
	resCrowd, _ := crowd.Run(streams)
	if resCrowd.Wall <= resSolo.Wall {
		t.Errorf("32-way run (%d cyc) not slower than solo (%d cyc)",
			resCrowd.Wall, resSolo.Wall)
	}
}

func TestMarkersAndRSS(t *testing.T) {
	m := New(smallSpec(1))
	ops := []isa.Op{
		{Kind: isa.KindMarker, Marker: isa.MarkerAlloc, Addr: 1 << 30},
		{Kind: isa.KindMarker, Marker: isa.MarkerStart, Label: 3},
		{Kind: isa.KindLoad, Addr: 0x10, Size: 8},
		{Kind: isa.KindMarker, Marker: isa.MarkerStop, Label: 3},
		{Kind: isa.KindMarker, Marker: isa.MarkerFree, Addr: 1 << 20},
	}
	var seen []isa.MarkerKind
	m.SetMarkerFunc(func(core int, now sim.Cycles, op *isa.Op) {
		seen = append(seen, op.Marker)
	})
	res, err := m.Run([]isa.Stream{&isa.SliceStream{Ops: ops}})
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.MarkerKind{isa.MarkerAlloc, isa.MarkerStart, isa.MarkerStop, isa.MarkerFree}
	if len(seen) != len(want) {
		t.Fatalf("markers seen = %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("marker %d = %v, want %v", i, seen[i], want[i])
		}
	}
	if res.MaxRSS != 1<<30 {
		t.Errorf("MaxRSS = %d, want %d", res.MaxRSS, 1<<30)
	}
	cur, _ := m.RSS()
	if cur != 1<<20 {
		t.Errorf("final RSS = %d, want %d", cur, 1<<20)
	}
	// Markers execute for free and don't count as ops.
	if res.TotalOps != 1 {
		t.Errorf("TotalOps = %d, want 1 (markers excluded)", res.TotalOps)
	}
}

// chargeProbe charges a fixed penalty on every Nth op.
type chargeProbe struct {
	n       int
	seen    int
	penalty sim.Cycles
	memOps  uint64
}

func (p *chargeProbe) OnOp(now sim.Cycles, op *isa.Op, lat uint32, level uint8, tlb, remote bool) sim.Cycles {
	p.seen++
	if op.Kind.IsMemory() {
		p.memOps++
	}
	if p.n > 0 && p.seen%p.n == 0 {
		return p.penalty
	}
	return 0
}

func TestProbeChargesCycles(t *testing.T) {
	base := New(smallSpec(1))
	resBase, _ := base.Run([]isa.Stream{seqLoads(10000, 0, 64)})

	m := New(smallSpec(1))
	probe := &chargeProbe{n: 10, penalty: 100}
	if err := m.AttachProbe(0, probe); err != nil {
		t.Fatal(err)
	}
	res, _ := m.Run([]isa.Stream{seqLoads(10000, 0, 64)})
	if probe.seen != 10000 {
		t.Errorf("probe saw %d ops", probe.seen)
	}
	extra := int64(res.Wall) - int64(resBase.Wall)
	wantExtra := int64(1000 * 100)
	if extra < wantExtra*8/10 || extra > wantExtra*12/10 {
		t.Errorf("probe penalty changed wall by %d, want ~%d", extra, wantExtra)
	}
}

func TestAttachProbeValidation(t *testing.T) {
	m := New(smallSpec(2))
	if err := m.AttachProbe(5, &chargeProbe{}); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := m.AttachProbe(-1, &chargeProbe{}); err == nil {
		t.Error("negative core accepted")
	}
	if err := m.AttachProbe(1, &chargeProbe{}); err != nil {
		t.Errorf("valid attach failed: %v", err)
	}
	m.ClearProbes()
	res, _ := m.Run([]isa.Stream{seqLoads(100, 0, 64), seqLoads(100, 1<<30, 64)})
	if res.TotalOps != 200 {
		t.Errorf("ops = %d", res.TotalOps)
	}
}

func TestTicksFire(t *testing.T) {
	m := New(smallSpec(1))
	var ticks []sim.Cycles
	m.OnTick(func(now sim.Cycles) { ticks = append(ticks, now) })
	m.Run([]isa.Stream{seqLoads(5000, 0, 64)})
	if len(ticks) == 0 {
		t.Fatal("no ticks")
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatal("ticks not monotone")
		}
	}
	if ticks[0] != m.Spec().Quantum {
		t.Errorf("first tick at %d, want one quantum (%d)", ticks[0], m.Spec().Quantum)
	}
}

func TestBlockOpsMoveBulkTraffic(t *testing.T) {
	m := New(smallSpec(1))
	ops := []isa.Op{
		{Kind: isa.KindBlockStore, Addr: 0, Size: 1 << 20},
		{Kind: isa.KindBlockLoad, Addr: 1 << 30, Size: 1 << 20},
	}
	res, err := m.Run([]isa.Stream{&isa.SliceStream{Ops: ops}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DRAMBytes != 2<<20 {
		t.Errorf("DRAM bytes = %d, want %d", res.DRAMBytes, 2<<20)
	}
	if res.TotalMemOps != 2*(1<<20)/64 {
		t.Errorf("mem ops = %d, want %d lines", res.TotalMemOps, 2*(1<<20)/64)
	}
	// Wire time: 2 MB at ~66.7 B/cyc is ~31k cycles minimum.
	if res.Wall < 30000 {
		t.Errorf("wall = %d, too fast for 2 MB", res.Wall)
	}
}

func TestFlopsCounted(t *testing.T) {
	m := New(smallSpec(1))
	ops := make([]isa.Op, 100)
	for i := range ops {
		ops[i] = isa.Op{Kind: isa.KindSIMD}
	}
	res, _ := m.Run([]isa.Stream{&isa.SliceStream{Ops: ops}})
	if res.TotalFlops != 400 {
		t.Errorf("flops = %d, want 400 (4 lanes)", res.TotalFlops)
	}
}

func TestRunResetsBetweenRuns(t *testing.T) {
	m := New(smallSpec(1))
	r1, _ := m.Run([]isa.Stream{seqLoads(1000, 0, 64)})
	r2, _ := m.Run([]isa.Stream{seqLoads(1000, 0, 64)})
	if r1.Wall != r2.Wall || r1.DRAMBytes != r2.DRAMBytes {
		t.Errorf("state leaked across runs: %+v vs %+v", r1, r2)
	}
}

func TestLevelCountsReported(t *testing.T) {
	m := New(smallSpec(1))
	ops := make([]isa.Op, 2000)
	for i := range ops {
		ops[i] = isa.Op{Kind: isa.KindLoad, Addr: 0x5000, Size: 8}
	}
	res, _ := m.Run([]isa.Stream{&isa.SliceStream{Ops: ops}})
	lv := res.Cores[0].Levels
	if lv[memsim.LevelL1] < 1990 {
		t.Errorf("L1 hits = %d, want ~1999", lv[memsim.LevelL1])
	}
	if lv[memsim.LevelDRAM] != 1 {
		t.Errorf("DRAM accesses = %d, want 1", lv[memsim.LevelDRAM])
	}
}

func TestWithHelpers(t *testing.T) {
	s := AmpereAltraMax().WithCores(8).WithFreq(1_000_000)
	if s.Cores != 8 || s.Freq.Hz != 1_000_000 {
		t.Errorf("helpers broken: %+v", s)
	}
	// normalize must not clobber explicit values.
	n := s.normalize()
	if n.Cores != 8 || n.Freq.Hz != 1_000_000 {
		t.Errorf("normalize clobbered: %+v", n)
	}
}

func TestNUMAMachineRemoteAccesses(t *testing.T) {
	spec := smallSpec(4)
	spec.NUMA = memsim.NUMAConfig{Nodes: 2, InterleaveBytes: 1 << 30, InterconnectLatency: 100}
	m := New(spec)
	if m.NUMA() == nil {
		t.Fatal("NUMA domain not constructed")
	}
	// Cores 0,1 on node 0; cores 2,3 on node 1. All cores stream from
	// the first GiB (node 0): half the machine accesses remotely.
	streams := make([]isa.Stream, 4)
	for i := range streams {
		streams[i] = seqLoads(20000, uint64(i)*4<<20, 64)
	}
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	local, remote := m.NUMA().Traffic()
	if remote == 0 {
		t.Fatal("no remote accesses despite cross-node placement")
	}
	if local == 0 {
		t.Fatal("no local accesses")
	}
	frac := m.NUMA().RemoteFraction()
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("remote fraction = %v, want ~0.5", frac)
	}
	if res.DRAMBytes != (local+remote)*64 {
		t.Errorf("DRAMBytes = %d, want %d", res.DRAMBytes, (local+remote)*64)
	}
}

func TestNUMARemoteSlower(t *testing.T) {
	mk := func(nodes int) sim.Cycles {
		spec := smallSpec(2)
		spec.NUMA = memsim.NUMAConfig{Nodes: nodes, InterleaveBytes: 1 << 30,
			InterconnectLatency: 400}
		m := New(spec)
		// Core 1 (node 1 when nodes=2) streams node-0 memory.
		streams := []isa.Stream{nil, seqLoads(50000, 0, 64)}
		res, err := m.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return res.Wall
	}
	uma, numa := mk(1), mk(2)
	if numa <= uma {
		t.Errorf("remote run (%d) not slower than local (%d)", numa, uma)
	}
}

func TestIntelIceLakeSPSpec(t *testing.T) {
	s := IntelIceLakeSP()
	if s.Arch != isa.ArchX86 {
		t.Errorf("arch = %q", s.Arch)
	}
	if s.PageBytes != 4<<10 {
		t.Errorf("page = %d, want 4 KB", s.PageBytes)
	}
	// All cache geometries must construct (power-of-two set counts).
	m := New(s.WithCores(2))
	if m.Spec().Cores != 2 {
		t.Errorf("cores = %d", m.Spec().Cores)
	}
}

func TestSpecForArch(t *testing.T) {
	if SpecForArch(isa.ArchX86).Name != IntelIceLakeSP().Name {
		t.Error("x86 does not map to the Ice Lake part")
	}
	if SpecForArch(isa.ArchARM64).Name != AmpereAltraMax().Name {
		t.Error("arm64 does not map to the Altra")
	}
	if SpecForArch("").Arch != isa.ArchARM64 {
		t.Error("unknown arch must fall back to the ARM platform")
	}
}

// TestNUMARunResultPinned pins a 2-node run bit for bit: the per-core
// cycle counts, the memory traffic and the remote fraction depend on
// each node's DRAM seed and on how cores map to nodes, which no trace
// golden covers (every profiled platform is single-socket).
func TestNUMARunResultPinned(t *testing.T) {
	spec := smallSpec(4)
	spec.NUMA = memsim.NUMAConfig{Nodes: 2, InterleaveBytes: 1 << 20, InterconnectLatency: 100}
	m := New(spec)
	streams := make([]isa.Stream, 4)
	for i := range streams {
		streams[i] = seqLoads(30000, uint64(i)*3<<20, 64)
	}
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	var cycles []sim.Cycles
	for _, c := range res.Cores {
		cycles = append(cycles, c.Cycles)
	}
	got := fmt.Sprintf("cycles=%v dram=%d remote=%.6f", cycles, res.DRAMBytes,
		m.NUMA().RemoteFraction())
	const want = "cycles=[325597 337390 341432 331377] dram=7680000 remote=0.500000"
	if got != want {
		t.Errorf("2-node run = %q, want %q", got, want)
	}
}
