// Benchmarks regenerating every table and figure of the paper's
// evaluation (one Benchmark* per artifact; see DESIGN.md §5 for the
// index), plus the ablation studies of the design choices DESIGN.md
// calls out and microbenchmarks of the performance-critical substrate
// paths.
//
// Figure benches run the QuickScale configuration so `go test
// -bench=.` completes in minutes; cmd/nmorepro runs the full
// DefaultScale used for EXPERIMENTS.md. Shape metrics (accuracy,
// overhead, collision counts) are attached via b.ReportMetric, so the
// bench output doubles as a compact reproduction record.
package nmo_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"nmo"
	"nmo/internal/engine"
	"nmo/internal/experiments"
	"nmo/internal/isa"
	"nmo/internal/machine"
	"nmo/internal/memsim"
	"nmo/internal/sim"
	"nmo/internal/spe"
	"nmo/internal/workloads"
	"nmo/internal/xrand"
)

func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Trials = 2
	return sc
}

// --- Table I / Table II ---

func BenchmarkTable1EnvConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1EnvVars()
		// Keep in lockstep with TestTable1MatchesPaperDefaults (the
		// stale magic number here broke the bench when PR 2 grew the
		// table).
		if len(rows) != 10 {
			b.Fatalf("Table I row count drifted: %d", len(rows))
		}
	}
}

func BenchmarkTable2MachineSpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2MachineSpec()
		if len(rows) == 0 {
			b.Fatal("empty Table II")
		}
	}
}

// --- Fig. 2 / Fig. 3: CloudSuite temporal views ---

func benchCloud(b *testing.B, workload string) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CloudTemporal(sc, workload)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PeakRSSGiB, "peakRSS-GiB")
		b.ReportMetric(res.PeakBWGiBps, "peakBW-GiBps")
	}
}

func BenchmarkFig2CapacityPageRank(b *testing.B) { benchCloud(b, "pagerank") }
func BenchmarkFig3BandwidthInMem(b *testing.B)   { benchCloud(b, "inmem") }

// --- Fig. 4 / 5 / 6: region-tagged sample traces ---

func benchRegionTrace(b *testing.B, workload string, threads int) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RegionTrace(sc, workload, threads, 64, 24)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Trace.Samples)), "samples")
		b.ReportMetric(res.Locality, "locality")
	}
}

func BenchmarkFig4StreamRegions(b *testing.B) { benchRegionTrace(b, "stream", 8) }
func BenchmarkFig5CFD1Thread(b *testing.B)    { benchRegionTrace(b, "cfd", 1) }
func BenchmarkFig6CFD32Threads(b *testing.B)  { benchRegionTrace(b, "cfd", 32) }

// --- Fig. 7: samples vs period ---

func BenchmarkFig7SamplesVsPeriod(b *testing.B) {
	sc := benchScale()
	sc.Trials = 1
	periods := []uint64{1024, 4096, 16384, 65536} // subset of the axis
	for i := 0; i < b.N; i++ {
		res, err := experiments.PeriodSweep(sc, "stream", periods)
		if err != nil {
			b.Fatal(err)
		}
		first := float64(res.Points[0].Samples[0])
		last := float64(res.Points[len(res.Points)-1].Samples[0])
		b.ReportMetric(first/last, "sample-ratio-1024-vs-65536")
	}
}

// --- Fig. 8: accuracy / overhead / collisions vs period ---

func benchFig8(b *testing.B, workload string) {
	sc := benchScale()
	sc.Trials = 1
	periods := []uint64{1000, 4000, 16000}
	for i := 0; i < b.N; i++ {
		res, err := experiments.PeriodSweep(sc, workload, periods)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].Accuracy.Mean, "acc@1000")
		b.ReportMetric(res.Points[1].Accuracy.Mean, "acc@4000")
		b.ReportMetric(res.Points[2].Accuracy.Mean, "acc@16000")
		b.ReportMetric(res.Points[0].Overhead.Mean*100, "ovh@1000-pct")
		b.ReportMetric(res.Points[0].HWColl.Mean, "collisions@1000")
	}
}

func BenchmarkFig8Stream(b *testing.B) { benchFig8(b, "stream") }
func BenchmarkFig8CFD(b *testing.B)    { benchFig8(b, "cfd") }
func BenchmarkFig8BFS(b *testing.B)    { benchFig8(b, "bfs") }

// --- Fig. 9: aux buffer sweep ---

func BenchmarkFig9AuxSweep(b *testing.B) {
	sc := benchScale()
	sc.Trials = 1
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9AuxSweep(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].Accuracy.Mean, "acc@2pages")
		b.ReportMetric(res.Points[len(res.Points)-1].Accuracy.Mean, "acc@2048pages")
	}
}

// --- Fig. 10 / 11: thread sweep ---

func BenchmarkFig10ThreadSweep(b *testing.B) {
	sc := benchScale()
	sc.Trials = 1
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10ThreadSweep(sc)
		if err != nil {
			b.Fatal(err)
		}
		lo := res.Points[0]
		hi := res.Points[len(res.Points)-1]
		b.ReportMetric(lo.Overhead.Mean*100, "ovh@1T-pct")
		b.ReportMetric(hi.Overhead.Mean*100, "ovh@maxT-pct")
		b.ReportMetric(hi.Accuracy.Mean, "acc@maxT")
	}
}

func BenchmarkFig11ThreadCollisions(b *testing.B) {
	sc := benchScale()
	sc.Trials = 1
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10ThreadSweep(sc)
		if err != nil {
			b.Fatal(err)
		}
		lo := res.Points[0]
		hi := res.Points[len(res.Points)-1]
		b.ReportMetric(lo.HWColl.Mean, "hwcoll@1T")
		b.ReportMetric(hi.HWColl.Mean, "hwcoll@maxT")
	}
}

// --- Ablations (DESIGN.md §6) ---

// ablationProfile runs STREAM under a sampling config mutated by f.
func ablationProfile(b *testing.B, mutate func(*nmo.Config, *nmo.MachineSpec)) *nmo.Profile {
	b.Helper()
	spec := nmo.AmpereAltraMax().WithCores(64)
	cfg := nmo.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = nmo.ModeSample
	cfg.Period = 1024
	cfg.PageBytes = 1024
	cfg.AuxPages = 64
	cfg.AuxWatermarkBytes = 4096
	mutate(&cfg, &spec)
	mach := nmo.NewMachine(spec)
	w := nmo.NewStream(nmo.StreamConfig{Elems: 1_000_000, Threads: 32, Iters: 2})
	p, err := nmo.Run(cfg, mach, w)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkAblationJitter compares sampling with and without the
// interval-counter dither. Without dither, phase lock with loop bodies
// biases which code sites are sampled; the rate itself stays similar.
func BenchmarkAblationJitter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := ablationProfile(b, func(c *nmo.Config, _ *nmo.MachineSpec) { c.Jitter = true })
		off := ablationProfile(b, func(c *nmo.Config, _ *nmo.MachineSpec) { c.Jitter = false })
		b.ReportMetric(float64(on.Sampler.Processed), "samples-jitter-on")
		b.ReportMetric(float64(off.Sampler.Processed), "samples-jitter-off")
	}
}

// BenchmarkAblationDRAMTail disables the DRAM latency tail: collisions
// at small periods should largely disappear, flattening the Fig. 8a
// accuracy curve — evidence the tail is the collision driver.
func BenchmarkAblationDRAMTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationProfile(b, func(_ *nmo.Config, _ *nmo.MachineSpec) {})
		without := ablationProfile(b, func(_ *nmo.Config, s *nmo.MachineSpec) {
			s.DRAM.TailProb = -1
		})
		b.ReportMetric(float64(with.Sampler.Collisions), "collisions-tail-on")
		b.ReportMetric(float64(without.Sampler.Collisions), "collisions-tail-off")
	}
}

// BenchmarkAblationWatermark compares wakeup frequencies at 1/8 vs 1/2
// of the aux buffer: the watermark trades interrupt overhead against
// truncation risk.
func BenchmarkAblationWatermark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eighth := ablationProfile(b, func(c *nmo.Config, _ *nmo.MachineSpec) {
			c.AuxWatermarkBytes = 64 * 1024 / 8
		})
		half := ablationProfile(b, func(c *nmo.Config, _ *nmo.MachineSpec) {
			c.AuxWatermarkBytes = 0 // default: half the buffer
		})
		b.ReportMetric(float64(eighth.Kernel.Wakeups), "wakeups-eighth")
		b.ReportMetric(float64(half.Kernel.Wakeups), "wakeups-half")
	}
}

// BenchmarkAblationTrackingSlots compares the real single-slot SPE
// against a hypothetical dual-slot unit (spe.Config knob): the second
// slot absorbs most collisions.
func BenchmarkAblationTrackingSlots(b *testing.B) {
	run := func(slots int) uint64 {
		sink := &countSink{}
		cfg := spe.Config{Period: 64, SampleLoads: true, TrackingSlots: slots}
		u := spe.NewUnit(cfg, xrand.New(7), sink)
		u.Enable()
		op := benchOp()
		now := sim.Cycles(0)
		for i := 0; i < 2_000_000; i++ {
			u.OnOp(now, &op, 1800, 3, false, false)
			now += 2
		}
		return u.Stats().Collisions
	}
	for i := 0; i < b.N; i++ {
		one := run(1)
		two := run(2)
		b.ReportMetric(float64(one), "collisions-1slot")
		b.ReportMetric(float64(two), "collisions-2slot")
	}
}

// --- Engine: parallel scenario execution ---

// engineBatch builds a grid of sampling scenarios (the shape of one
// sweep point column).
func engineBatch(n int) []engine.Scenario {
	scs := make([]engine.Scenario, n)
	for i := range scs {
		cfg := nmo.DefaultConfig()
		cfg.Enable = true
		cfg.Mode = nmo.ModeSample
		cfg.Period = 2048
		cfg.PageBytes = 1024
		cfg.RingPages = 8
		cfg.AuxPages = 64
		scs[i] = engine.Scenario{
			Name:   fmt.Sprintf("stream/trial=%d", i),
			Spec:   machine.AmpereAltraMax().WithCores(32),
			Config: cfg,
			Seed:   engine.DeriveSeed(42, i),
			Workload: func() (workloads.Workload, error) {
				return nmo.NewStream(nmo.StreamConfig{
					Elems: 400_000, Threads: 16, Iters: 2,
				}), nil
			},
		}
	}
	return scs
}

// BenchmarkEngineParallelSpeedup runs the same scenario batch at
// jobs=1 and jobs=GOMAXPROCS and reports the wall-clock speedup — the
// engine's reason to exist. On an N-core host the speedup approaches
// min(N, batch size). With one worker both legs are the same serial
// run, so the bench skips rather than report a "speedup" of noise.
func BenchmarkEngineParallelSpeedup(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs GOMAXPROCS >= 2 for a parallel leg")
	}
	const batchSize = 8
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := engine.FirstError(engine.Runner{Jobs: 1}.RunAll(engineBatch(batchSize))); err != nil {
			b.Fatal(err)
		}
		serial := time.Since(t0)
		t0 = time.Now()
		if err := engine.FirstError(engine.Runner{}.RunAll(engineBatch(batchSize))); err != nil {
			b.Fatal(err)
		}
		parallel := time.Since(t0)
		b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	}
}

// BenchmarkStreamingVsCollect contrasts the same profiled run under
// the default Collect sink and under the aggregate-only sink chain
// the sweep drivers use. allocs/op and B/op expose the per-sample
// materialization the streaming pipeline removes (the fixed machine +
// session setup cost is identical in both variants, so the delta is
// pure sample storage); samples/op records the stream size. CI emits
// this into BENCH_root.json, pinning the memory trajectory per commit.
func BenchmarkStreamingVsCollect(b *testing.B) {
	mkcfg := func() nmo.Config {
		cfg := nmo.DefaultConfig()
		cfg.Enable = true
		cfg.Mode = nmo.ModeSample
		cfg.Period = 256 // dense sampling: storage dominates setup
		cfg.Seed = 42
		return cfg
	}
	variant := func(b *testing.B, cfg nmo.Config, wantStored bool) {
		spec := machine.AmpereAltraMax().WithCores(8)
		b.ReportAllocs()
		var processed, stored uint64
		for i := 0; i < b.N; i++ {
			w := nmo.NewStream(nmo.StreamConfig{Elems: 200_000, Threads: 8, Iters: 2})
			p, err := nmo.Run(cfg, nmo.NewMachine(spec), w)
			if err != nil {
				b.Fatal(err)
			}
			processed = p.Sampler.Processed
			stored = uint64(len(p.Trace.Samples))
			if wantStored != (stored > 0) {
				b.Fatalf("stored %d samples, wantStored=%v", stored, wantStored)
			}
		}
		b.ReportMetric(float64(processed), "samples/op")
		b.ReportMetric(float64(stored), "stored/op")
	}
	b.Run("collect", func(b *testing.B) {
		variant(b, mkcfg(), true)
	})
	b.Run("aggregate", func(b *testing.B) {
		cfg := mkcfg()
		cfg.SinkFactory = experiments.AggregateSinks
		variant(b, cfg, false)
	})
}

// BenchmarkEngineScenarioOverhead measures the per-scenario fixed cost
// (machine construction + session setup) with a minimal workload: the
// price the engine pays for share-nothing isolation.
func BenchmarkEngineScenarioOverhead(b *testing.B) {
	cfg := nmo.DefaultConfig()
	spec := machine.AmpereAltraMax().WithCores(2)
	sc := engine.Scenario{
		Name: "tiny", Spec: spec, Config: cfg,
		Workload: func() (workloads.Workload, error) {
			return nmo.NewStream(nmo.StreamConfig{Elems: 64, Threads: 1, Iters: 1}), nil
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate microbenchmarks ---

func BenchmarkMachineOpThroughput(b *testing.B) {
	spec := machine.AmpereAltraMax().WithCores(1)
	m := machine.New(spec)
	elems := 200_000
	w := nmo.NewStream(nmo.StreamConfig{Elems: elems, Threads: 1, Iters: 1})
	b.ResetTimer()
	ops := 0
	for i := 0; i < b.N; i++ {
		res, err := m.Run(w.Streams())
		if err != nil {
			b.Fatal(err)
		}
		ops += int(res.TotalOps)
	}
	b.ReportMetric(float64(ops)/float64(b.N), "ops/run")
}

func BenchmarkCacheAccess(b *testing.B) {
	c := memsim.NewCache(memsim.CacheConfig{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 64)
	}
}

// BenchmarkTLBAccess cycles a 48-entry one-set TLB over 32 resident
// pages: consecutive accesses differ, so every one is a hit that takes
// the full lookup (the path BenchmarkCacheAccess, all misses, skips).
func BenchmarkTLBAccess(b *testing.B) {
	const page = 64 << 10
	c := memsim.NewCache(memsim.CacheConfig{SizeBytes: 48 * page, LineBytes: page, Ways: 48})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%32) * page)
	}
}

// BenchmarkCacheAccessHit walks an L1 geometry over a resident working
// set of half its lines: after the first pass every access hits.
func BenchmarkCacheAccessHit(b *testing.B) {
	c := memsim.NewCache(memsim.CacheConfig{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4})
	const lines = (64 << 10) / 64 / 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%lines) * 64)
	}
}

func BenchmarkSPEUnitHotPath(b *testing.B) {
	sink := &countSink{}
	u := spe.NewUnit(spe.Config{Period: 4096, SampleLoads: true}, xrand.New(1), sink)
	u.Enable()
	op := benchOp()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.OnOp(sim.Cycles(i), &op, 4, 0, false, false)
	}
}

// --- helpers ---

type countSink struct{ n int }

func (s *countSink) WriteRecord(_ sim.Cycles, rec []byte) bool {
	s.n++
	return true
}

func benchOp() isa.Op {
	return isa.Op{Kind: isa.KindLoad, Addr: 0x10000, PC: 0x400000, Size: 8}
}

// --- Cross-backend (SPE vs PEBS) ---

// backendProfile profiles STREAM on a backend's native platform.
func backendProfile(b *testing.B, backend nmo.Backend) *nmo.Profile {
	b.Helper()
	spec := nmo.SpecForBackend(backend).WithCores(64)
	cfg := nmo.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = nmo.ModeSample
	cfg.Backend = backend
	cfg.Period = 1024
	cfg.PageBytes = 1024
	cfg.AuxPages = 64
	cfg.AuxWatermarkBytes = 4096
	mach := nmo.NewMachine(spec)
	w := nmo.NewStream(nmo.StreamConfig{Elems: 1_000_000, Threads: 32, Iters: 2})
	p, err := nmo.Run(cfg, mach, w)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkBackendContrast runs the same workload through both
// sampling backends and reports the mechanism split: SPE pays in
// collisions, PEBS in shadowing skid — the cross-ISA claim of the
// paper's §III in one metric row.
func BenchmarkBackendContrast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spe := backendProfile(b, nmo.BackendSPE)
		pebs := backendProfile(b, nmo.BackendPEBS)
		b.ReportMetric(float64(spe.Sampler.Processed), "samples-spe")
		b.ReportMetric(float64(pebs.Sampler.Processed), "samples-pebs")
		b.ReportMetric(float64(spe.Sampler.Collisions), "collisions-spe")
		b.ReportMetric(float64(pebs.Sampler.SkidTotal), "skidops-pebs")
	}
}
