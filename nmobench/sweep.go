package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"nmo/internal/analysis"
	"nmo/internal/core"
	"nmo/internal/experiments"
	"nmo/internal/machine"
	"nmo/internal/perfev"
	"nmo/internal/report"
	"nmo/internal/sampler"
	"nmo/internal/trace"
	"nmo/internal/workloads"
)

// fig8QuickSHA256 is the SHA-256 of `nmorepro -exp fig8 -quick`'s
// standard output (identical at any -jobs). At the default seed the
// sweep's rendered tables must hash to it.
const fig8QuickSHA256 = "96fe3fe605738d391f9248a57511a7848430fb7aa27c44f9e6b35c829495b9fd"

// sweepApps are the Fig. 8 apps, in nmorepro's order.
var sweepApps = []string{"stream", "cfd", "bfs"}

// sweepScale is the QuickScale configuration nmorepro -quick uses,
// reseeded and sized to the worker count.
func sweepScale(seed uint64, jobs int) experiments.Scale {
	sc := experiments.QuickScale()
	sc.Seed = seed
	sc.Jobs = jobs
	return sc
}

// sweepSpec is the machine every sweep scenario runs on.
func sweepSpec(sc experiments.Scale) machine.Spec {
	return machine.SpecForArch(sampler.KindSPE.Arch()).WithCores(sc.Cores)
}

// newSweepWorkload builds one app's workload as the sweep does.
func newSweepWorkload(sc experiments.Scale, app string) workloads.Workload {
	switch app {
	case "stream":
		return workloads.NewStream(workloads.StreamConfig{Elems: sc.StreamElems, Threads: sc.Threads, Iters: sc.Iters})
	case "cfd":
		return workloads.NewCFD(workloads.CFDConfig{Elems: sc.CFDElems, Threads: sc.Threads, Iters: sc.Iters, Seed: sc.Seed})
	default:
		return workloads.NewBFS(workloads.BFSConfig{Nodes: sc.BFSNodes, Degree: sc.BFSDegree, Threads: sc.Threads, Iters: 5, Seed: sc.Seed})
	}
}

// renderFig8 renders one app's sweep exactly as nmorepro -exp fig8.
func renderFig8(w io.Writer, res *experiments.PeriodSweepResult) error {
	t := &report.Table{
		Title: fmt.Sprintf("Fig. 8 (%s): accuracy / time overhead / collisions vs period (%d threads)",
			res.Workload, res.Threads),
		Headers: []string{"period", "accuracy", "overhead", "collisions(flagged)", "hw-collisions"},
	}
	for _, pt := range res.Points {
		t.AddRow(pt.Period,
			report.MeanStd(pt.Accuracy),
			report.Pct(pt.Overhead.Mean),
			fmt.Sprintf("%.1f", pt.Collisions.Mean),
			fmt.Sprintf("%.0f", pt.HWColl.Mean))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// checkPoints counts the sweep points that break the invariants every
// seed must satisfy: accuracy within [0,1], and samples in every trial
// at the densest period.
func checkPoints(res *experiments.PeriodSweepResult) (points int, bad []string) {
	for i, pt := range res.Points {
		points++
		ok := pt.Accuracy.Min >= 0 && pt.Accuracy.Max <= 1
		if i == 0 {
			for _, n := range pt.Samples {
				ok = ok && n > 0
			}
		}
		if !ok {
			bad = append(bad, fmt.Sprintf("%s period %d: accuracy [%g, %g], samples %v",
				res.Workload, pt.Period, pt.Accuracy.Min, pt.Accuracy.Max, pt.Samples))
		}
	}
	if res.MemOps == 0 {
		bad = append(bad, res.Workload+": no memory operations counted")
	}
	return points, bad
}

// setupRepeats is how many times a sweep pass times its set-up, which
// takes tens of milliseconds; setup_s is the median.
const setupRepeats = 7

// sweepSetup is what a grid needs before its first scenario runs:
// every app's inputs (the BFS graph, the CFD mesh) and a machine.
func sweepSetup(sc experiments.Scale) {
	for _, app := range sweepApps {
		newSweepWorkload(sc, app)
	}
	machine.New(sweepSpec(sc))
}

// gridOut is one full Fig. 8 grid's outcome.
type gridOut struct {
	tables  string
	results []*experiments.PeriodSweepResult
	// Traced replay only: per-layer metrics and the replayed scenarios.
	layer  map[string]float64
	perApp map[string][]*replayScenario
}

// runGridUntraced runs the grid through experiments.PeriodSweep, the
// code path nmorepro -exp fig8 takes.
func runGridUntraced(sc experiments.Scale) (*gridOut, error) {
	var buf bytes.Buffer
	out := &gridOut{}
	for _, app := range sweepApps {
		res, err := experiments.PeriodSweep(sc, app, experiments.Fig8Periods)
		if err != nil {
			return nil, err
		}
		out.results = append(out.results, res)
		if err := renderFig8(&buf, res); err != nil {
			return nil, err
		}
	}
	out.tables = buf.String()
	return out, nil
}

func measureSweep(o options, tr *tracer) (*measurement, error) {
	sc := sweepScale(o.seed, o.jobs)
	m := newMeasurement()

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // every repeat starts from the same heap state
		t0 := time.Now()
		sweepSetup(sc)
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.e2e["setup_s"] = median(setups)

	var bare map[string]bareRun
	if tr != nil {
		var err error
		if bare, err = bareMachine(sc); err != nil {
			return nil, err
		}
	}

	rss := sampleRSS(func() []int { return []int{os.Getpid()} })
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	var walls []float64
	var last *gridOut
	badGrids := 0
	for {
		g0 := time.Now()
		var out *gridOut
		var err error
		if tr == nil {
			out, err = runGridUntraced(sc)
		} else {
			out, err = runGridTraced(sc, tr)
		}
		if err != nil {
			return nil, err
		}
		wall := time.Since(g0)
		walls = append(walls, wall.Seconds())
		fmt.Fprintf(os.Stderr, "nmobench: sweep grid %d: %.2f s (traced: %t)\n", len(walls), wall.Seconds(), tr != nil)
		last = out
		before := m.failed
		m.checkGrid(o.seed, out)
		if m.failed > before {
			badGrids++
		}
		if time.Now().Add(wall).After(deadline) {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	m.e2e["rss_p90_mib"] = rss.finish()
	runtime.ReadMemStats(&ms1)
	scenarios := float64(len(walls) * len(sweepApps) * (1 + sc.Trials*len(experiments.Fig8Periods)))

	s := summarize(walls)
	m.e2e["op_p50_ms"] = s.P50 * 1e3
	m.e2e["op_p90_ms"] = s.P90 * 1e3
	m.e2e["throughput_per_s"] = scenarios / elapsed
	m.e2e["slo_ratio"] = sloRatio(walls, sweepSLO.Seconds(), badGrids)
	hwm, err := procStatus(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	m.layer["proc.hwm_mib"] = float64(hwm) / (1 << 20)
	m.tables = last.tables
	for k, v := range last.layer {
		m.layer[k] = v
	}
	m.layer["e2e.samples"] = float64(s.N)
	m.layer["e2e.tail_ms"] = s.Tail * 1e3
	m.layer["e2e.tail_permille"] = float64(s.TailPM)
	m.layer["proc.alloc_mib_per_scenario"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / scenarios
	m.layer["proc.cpu_s_per_job"] = (selfCPU() - cpu0) / scenarios
	if tr != nil {
		var ns int64
		var ops uint64
		for _, b := range bare {
			ns += b.ns
			ops += b.ops
		}
		m.layer["machine.run_s"] = float64(ns) / 1e9
		m.layer["machine.ops"] = float64(ops)
		m.layer["machine.ns_per_op"] = float64(ns) / float64(ops)
		if err := v2Pass(sc, last.perApp, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// checkGrid applies the output checks to one grid: the pinned digest
// at the default seed, the per-point invariants at every seed.
func (m *measurement) checkGrid(seed uint64, out *gridOut) {
	var points int
	var bad []string
	for _, res := range out.results {
		n, b := checkPoints(res)
		points += n
		bad = append(bad, b...)
	}
	m.attempted += points
	if seed == defaultSeed {
		sum := sha256.Sum256([]byte(out.tables))
		if got := hex.EncodeToString(sum[:]); got != fig8QuickSHA256 {
			m.failed += points
			m.note("fig8 tables at the default seed hash to %s, want %s", got, fig8QuickSHA256)
			return
		}
	}
	m.failed += len(bad)
	for _, b := range bad {
		m.note("sweep invariant: %s", b)
	}
}

// timedSink wraps the sink chain a SinkFactory returns and sums the
// time spent inside it. It keeps the batch and checksum interfaces of
// the chain it wraps, so the session drives it exactly as the
// unwrapped chain.
type timedSink struct {
	inner interface {
		trace.BatchSink
		Sum16() [16]byte
	}
	tr          *tracer
	first, last int64
	busy        int64
}

func (s *timedSink) timed(f func() error) error {
	t0 := s.tr.now()
	err := f()
	t1 := s.tr.now()
	if s.first == 0 {
		s.first = t0
	}
	s.last = t1
	s.busy += t1 - t0
	return err
}

func (s *timedSink) Emit(x *trace.Sample) error {
	return s.timed(func() error { return s.inner.Emit(x) })
}

func (s *timedSink) EmitBatch(b []trace.Sample) error {
	return s.timed(func() error { return s.inner.EmitBatch(b) })
}

func (s *timedSink) Close() error    { return s.timed(s.inner.Close) }
func (s *timedSink) Sum16() [16]byte { return s.inner.Sum16() }

// aggregateChain is experiments.AggregateSinks with its checksum
// interface visible to the wrapper.
func aggregateChain(meta trace.Meta) (*trace.Aggregate, error) {
	s, err := experiments.AggregateSinks(meta)
	if err != nil {
		return nil, err
	}
	agg, ok := s.(*trace.Aggregate)
	if !ok {
		return nil, fmt.Errorf("AggregateSinks returned %T, want *trace.Aggregate", s)
	}
	return agg, nil
}

// sweepConfig is the profiled configuration of one grid point, built
// as experiments' aggregate sweep configuration. The traced replay's
// tables must equal the untraced PeriodSweep tables, which checks
// that the two agree.
func sweepConfig(sc experiments.Scale, period uint64, trial int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = core.ModeSample
	cfg.Backend = sc.Backend
	cfg.Period = period
	cfg.PageBytes = sc.PageBytes
	cfg.AuxWatermarkBytes = sc.WatermarkBytes
	cfg.RingPages = 8
	cfg.AuxPages = 1024
	cfg.Seed = sc.Seed + uint64(trial)*7919
	cfg.MaxSamples = 1 << 22
	cfg.Costs = perfev.Costs{
		IRQBase: 1_200, IRQPerRecord: 25, DrainBase: 400, DrainPerByte: 0.1,
		IRQDeadTime: 20_000, MinAuxPages: 4,
	}
	return cfg
}

// replayScenario is one grid point of the traced replay.
type replayScenario struct {
	period uint64 // 0 = the uninstrumented baseline
	trial  int
	cfg    core.Config
	prof   *core.Profile
	busy   int64 // span duration
	sink   int64 // time inside the sink chain
	sess   *handle
}

func (rs *replayScenario) sessNs() int64 { return rs.sess.s.End - rs.sess.s.Start }

// bareRun is one app's workload on a machine with no profiler.
type bareRun struct {
	ns  int64
	ops uint64
}

// bareMachine times Machine.Run for each app with nothing attached,
// outside the grid (machine.run_s, machine.ops).
func bareMachine(sc experiments.Scale) (map[string]bareRun, error) {
	out := map[string]bareRun{}
	for _, app := range sweepApps {
		w := newSweepWorkload(sc, app)
		m := machine.New(sweepSpec(sc))
		t0 := time.Now()
		res, err := m.Run(w.Streams())
		if err != nil {
			return nil, err
		}
		out[app] = bareRun{ns: int64(time.Since(t0)), ops: res.TotalOps}
	}
	return out, nil
}

// runScenario runs one grid point through the public calls
// engine.Runner makes (workload factory, machine.New,
// core.NewSession, Session.Run), with a span around each; the sink
// chain is an aggregated child of the session span.
func runScenario(sc experiments.Scale, app string, rs *replayScenario, tr *tracer, parent int64) error {
	sp := tr.begin("engine.scenario", parent, "")
	defer func() { sp.end(); rs.busy = sp.s.End - sp.s.Start }()
	ws := tr.begin("workloads.new", sp.id(), "")
	w := newSweepWorkload(sc, app)
	ws.end()
	mn := tr.begin("machine.new", sp.id(), "")
	m := machine.New(sweepSpec(sc))
	mn.end()
	ss := tr.begin("core.session", sp.id(), "")
	cfg := rs.cfg
	var sink *timedSink
	if cfg.SinkFactory != nil {
		cfg.SinkFactory = func(meta trace.Meta) (trace.Sink, error) {
			agg, err := aggregateChain(meta)
			if err != nil {
				return nil, err
			}
			sink = &timedSink{inner: agg, tr: tr}
			return sink, nil
		}
	}
	sess, err := core.NewSession(cfg, m)
	if err == nil {
		rs.prof, err = sess.Run(w)
	}
	ss.end()
	rs.sess = ss
	if sink != nil {
		rs.sink = sink.busy
		tr.aggregate("trace.sink", ss.id(), sink.first, sink.last, sink.busy)
	}
	return err
}

// runGridTraced replays the grid with a span around every public call
// and derives the sweep's per-layer metrics. Each app's batch runs on
// sc.Jobs workers, as PeriodSweep does. The batch's baseline scenario
// runs the same workload with no profiler, beside the profiled ones,
// so its session time is the simulator's share of every session of
// the batch: an aggregated machine.run child of each session span,
// which leaves the sampling unit's time as the session's self time.
func runGridTraced(sc experiments.Scale, tr *tracer) (*gridOut, error) {
	root := tr.begin("bench.grid", 0, "")
	defer root.end()
	out := &gridOut{layer: map[string]float64{}, perApp: map[string][]*replayScenario{}}
	var buf bytes.Buffer
	var busy, capacity, sink, sampler, machineEquiv int64
	var samples, scenarios float64
	lay := out.layer
	for _, app := range sweepApps {
		scs := []*replayScenario{{cfg: core.DefaultConfig()}}
		for _, period := range experiments.Fig8Periods {
			for t := 0; t < sc.Trials; t++ {
				cfg := sweepConfig(sc, period, t)
				cfg.SinkFactory = experiments.AggregateSinks
				scs = append(scs, &replayScenario{period: period, trial: t, cfg: cfg})
			}
		}
		b0 := time.Now()
		errs := make([]error, len(scs))
		jobs := min(sc.Jobs, len(scs))
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					errs[i] = runScenario(sc, app, scs[i], tr, root.id())
				}
			}()
		}
		for i := range scs {
			next <- i
		}
		close(next)
		wg.Wait()
		capacity += int64(time.Since(b0)) * int64(jobs)
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		res := evalReplay(sc, app, scs)
		out.results = append(out.results, res)
		out.perApp[app] = scs
		if err := renderFig8(&buf, res); err != nil {
			return nil, err
		}
		machine := scs[0].sessNs()
		for _, rs := range scs {
			p := rs.prof
			tr.aggregate("machine.run", rs.sess.id(), rs.sess.s.Start, rs.sess.s.End, min(machine, rs.sessNs()-rs.sink))
			busy += rs.busy
			sink += rs.sink
			scenarios++
			lay["memsim.mem_accesses"] += float64(p.MemAccesses)
			lay["memsim.bus_accesses"] += float64(p.BusAccesses)
			lay["sampler.samples"] += float64(p.Sampler.Processed)
			lay["sampler.collisions"] += float64(p.Sampler.Collisions)
			lay["perfev.wakeups"] += float64(p.Kernel.Wakeups)
			lay["perfev.truncated"] += float64(p.Kernel.TruncatedRecords)
			samples += float64(p.Sampler.Processed)
			if rs.period != 0 {
				sampler += rs.sessNs() - rs.sink - machine
				machineEquiv += machine
			}
		}
	}
	out.tables = buf.String()
	lay["sampler.self_s"] = float64(sampler) / 1e9
	lay["sampler.host_overhead_ratio"] = float64(sampler) / float64(machineEquiv)
	lay["trace.sink_s"] = float64(sink) / 1e9
	lay["trace.ns_per_sample"] = float64(sink) / samples
	lay["engine.scenarios"] = scenarios
	lay["engine.parallel_eff"] = float64(busy) / float64(capacity)
	return out, nil
}

// evalReplay folds one app's replayed scenarios into the sweep result
// the way PeriodSweep does: Eq. (1) accuracy, overhead against the
// baseline, collisions, averaged over trials.
func evalReplay(sc experiments.Scale, app string, scs []*replayScenario) *experiments.PeriodSweepResult {
	base := scs[0].prof.Wall
	res := &experiments.PeriodSweepResult{Workload: app, Threads: sc.Threads, Baseline: uint64(base)}
	next := 1
	for _, period := range experiments.Fig8Periods {
		pt := experiments.PeriodPoint{Period: period}
		var acc, ovh, coll, hw []float64
		for t := 0; t < sc.Trials; t++ {
			rs := scs[next]
			next++
			p := rs.prof
			if res.MemOps == 0 {
				res.MemOps = p.MemAccesses
			}
			pt.Samples = append(pt.Samples, p.Sampler.Processed)
			acc = append(acc, analysis.Accuracy(p.MemAccesses, p.Sampler.Processed, rs.cfg.EffectivePeriod()))
			ovh = append(ovh, analysis.Overhead(base, p.Wall))
			coll = append(coll, float64(p.Kernel.FlaggedCollisions))
			hw = append(hw, float64(p.Sampler.Collisions))
		}
		pt.Accuracy = analysis.Aggregate(acc)
		pt.Overhead = analysis.Aggregate(ovh)
		pt.Collisions = analysis.Aggregate(coll)
		pt.HWColl = analysis.Aggregate(hw)
		res.Points = append(res.Points, pt)
	}
	return res
}

// countingWriter counts the bytes written to it and discards them.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// v2Pass reruns each app's densest trial-0 point with the v2 trace
// writer as the sink chain, timing the writer, and checks that its
// rolling MD5 equals the aggregate chain's for the same point.
func v2Pass(sc experiments.Scale, perApp map[string][]*replayScenario, m *measurement) error {
	var busy int64
	var samples, bytesOut float64
	clock := newTracer() // a time base for the sink timer; records no spans
	for _, app := range sweepApps {
		ref := perApp[app][1] // densest period, trial 0
		cfg := ref.cfg
		cw := &countingWriter{}
		var sink *timedSink
		cfg.SinkFactory = func(meta trace.Meta) (trace.Sink, error) {
			w, err := trace.NewWriterV2(cw, meta, 0)
			if err != nil {
				return nil, err
			}
			sink = &timedSink{inner: w, tr: clock}
			return sink, nil
		}
		sess, err := core.NewSession(cfg, machine.New(sweepSpec(sc)))
		if err != nil {
			return err
		}
		prof, err := sess.Run(newSweepWorkload(sc, app))
		if err != nil {
			return err
		}
		busy += sink.busy
		samples += float64(prof.Sampler.Processed)
		bytesOut += float64(cw.n)
		m.attempted++
		if prof.MD5 != ref.prof.MD5 {
			m.failed++
			m.note("%s period %d: v2 writer MD5 %x, aggregate chain %x", app, ref.period, prof.MD5, ref.prof.MD5)
		}
	}
	m.layer["trace.v2_sink_s"] = float64(busy) / 1e9
	m.layer["trace.v2_ns_per_sample"] = float64(busy) / samples
	m.layer["trace.blob_bytes"] = bytesOut
	return nil
}
