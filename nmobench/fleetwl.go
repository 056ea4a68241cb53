package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nmo/internal/service"
	"nmo/internal/trace"
)

const (
	// missSLO bounds one remote miss, submit through trace download.
	missSLO = time.Second
	// hitSLO bounds one remote hit sequence: about twice the
	// single-client tail on a 2-vCPU host.
	hitSLO = 20 * time.Millisecond
	// hitSpecCount is the fleet-hit working set K: about 7 MB of traces
	// over two shards, so a 1 MiB memory tier per shard holds roughly
	// a quarter of each shard's share. Small traces are promoted into
	// it on a hit; the large one never fits and serves from its spill
	// file.
	hitSpecCount   = 48
	hitCacheMemMiB = "1"
	// hitRate is the open-loop arrival rate, requests per second:
	// about a sixth of the closed-loop capacity of the fleet on a
	// 2-vCPU host. At half of it the open-loop tail swung with every
	// host stall, and a host slowed by its neighbours built a backlog.
	hitRate = 100.0
	// maxLag is the open-loop generator lateness (p99) beyond which the
	// open-loop figures are invalid rather than slow.
	maxLag = hitSLO / 4
	// threadsPerSpec matches fleetScenario's thread count (core filters
	// pick one of these cores).
	threadsPerSpec = 4
	// planSize bounds the operations one closed-loop phase can issue.
	planSize = 200_000
)

// hitLayout pins the shard of the eight most popular specs and of the
// large one (popularity rank → shard), so the hot set splits over the
// two shards the same way in every run.
var hitLayout = map[int]int{0: 0, 1: 1, 2: 1, 3: 0, 4: 0, 5: 1, 6: 1, 7: 0, hitSpecCount - 1: 1}

// step is the client- and server-side timing of one successful
// fleet operation.
type step struct {
	submit, wait, result, trace time.Duration
	filtered                    bool
	phases                      service.JobPhases
	id                          string
}

// fleetRun drives one fleet with the service client, as nmoprof
// -remote -trace-out does.
type fleetRun struct {
	f     *fleet
	hc    *http.Client
	cl    *service.Client
	tr    *tracer
	mu    sync.Mutex
	steps []step
	subs  atomic.Int64 // successful submissions
	bufs  sync.Pool
}

func newFleetRun(f *fleet, conns int) *fleetRun {
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	cl := service.NewClient(f.gw.addr)
	cl.HTTP = hc
	return &fleetRun{f: f, hc: hc, cl: cl, bufs: sync.Pool{New: func() any { return new(bytes.Buffer) }}}
}

// verifyTrace opens a downloaded v2 trace and recomputes its rolling
// MD5. An unfiltered download must also match want, the checksum the
// result document advertises.
func verifyTrace(data []byte, want string, filtered bool) error {
	rd, err := trace.OpenV2(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("trace does not open: %w", err)
	}
	sum, err := rd.VerifyMD5()
	if err != nil {
		return err
	}
	if got := hex.EncodeToString(sum[:]); !filtered && got != want {
		return fmt.Errorf("trace MD5 %s, result says %s", got, want)
	}
	return nil
}

// sequence runs Submit → Wait (shipped default poll) → Result → trace
// download for one job and returns when the download completed; the
// output checks run after that instant. wantMD5, when set, is the
// checksum recorded when the job's cache entry was filled.
func (r *fleetRun) sequence(spec service.JobSpec, opt service.TraceOptions, filtered bool, wantMD5 string) (time.Time, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var st step
	st.filtered = filtered
	root := r.tr.begin("bench.request", 0, "")
	defer root.end()

	t0 := time.Now()
	sp := r.tr.begin("service.submit", root.id(), "")
	info, err := r.cl.Submit(ctx, spec)
	sp.end()
	t1 := time.Now()
	if err != nil {
		return t1, fmt.Errorf("submit: %w", err)
	}
	r.subs.Add(1)
	if root != nil {
		root.s.Req = info.RequestID
	}
	wt := r.tr.begin("service.wait", root.id(), "")
	info, err = r.cl.Wait(ctx, info.ID, 0)
	wt.end()
	t2 := time.Now()
	if err != nil {
		return t2, fmt.Errorf("wait: %w", err)
	}
	rs := r.tr.begin("service.result", root.id(), "")
	doc, err := r.cl.Result(ctx, info.ID)
	rs.end()
	t3 := time.Now()
	if err != nil {
		return t3, fmt.Errorf("result: %w", err)
	}
	ts := r.tr.begin("service.trace", root.id(), "")
	buf := r.bufs.Get().(*bytes.Buffer)
	defer r.bufs.Put(buf)
	buf.Reset()
	_, hdr, err := r.cl.DownloadTrace(ctx, info.ID, opt, buf)
	ts.end()
	done := time.Now()
	if err != nil {
		return done, fmt.Errorf("trace: %w", err)
	}

	if len(doc.Scenarios) != 1 {
		return done, fmt.Errorf("result has %d scenarios, want 1", len(doc.Scenarios))
	}
	md5 := doc.Scenarios[0].TraceMD5
	if wantMD5 != "" && md5 != wantMD5 {
		return done, fmt.Errorf("hit returned MD5 %s, filled with %s", md5, wantMD5)
	}
	if !filtered && hdr != md5 {
		return done, fmt.Errorf("trace header MD5 %q, result says %s", hdr, md5)
	}
	if err := verifyTrace(buf.Bytes(), md5, filtered); err != nil {
		return done, err
	}

	st.submit, st.wait, st.result, st.trace = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), done.Sub(t3)
	st.id = info.ID
	if info.Phases != nil {
		p := *info.Phases
		st.phases = p
		// Server-side phases, as aggregated children of the client call
		// they happen under.
		if root != nil {
			sec := func(s float64) int64 { return int64(s * 1e9) }
			r.tr.aggregate("service.lookup", sp.id(), sp.s.Start, sp.s.End, sec(p.CacheLookupSec))
			r.tr.aggregate("service.queue", wt.id(), wt.s.Start, wt.s.End, sec(p.QueueWaitSec))
			r.tr.aggregate("engine.run", wt.id(), wt.s.Start, wt.s.End, sec(p.RunSec))
			r.tr.aggregate("service.digest", wt.id(), wt.s.Start, wt.s.End, sec(p.DigestSec))
			r.tr.aggregate("service.spill", wt.id(), wt.s.Start, wt.s.End, sec(p.SpillSec))
		}
	}
	r.mu.Lock()
	r.steps = append(r.steps, st)
	r.mu.Unlock()
	return done, nil
}

// fleetSnap is the fleet's counters at one instant.
type fleetSnap struct {
	stats       service.FleetStats
	statusReqs  float64 // gateway GET /v1/jobs/{id} requests served
	cpu         float64
	shardFile   int64 // shard trace bytes served by sendfile
	shardServed int64 // shard trace bytes served in total
}

func (r *fleetRun) snap() (fleetSnap, error) {
	var s fleetSnap
	resp, err := r.hc.Get("http://" + r.f.gw.addr + "/v1/stats")
	if err != nil {
		return s, err
	}
	err = json.NewDecoder(resp.Body).Decode(&s.stats)
	resp.Body.Close()
	if err != nil {
		return s, err
	}
	for _, m := range s.stats.Members {
		if m.Stats == nil {
			continue // a dead shard; finish counts it as a failure
		}
		s.shardFile += m.Stats.ZcSendfileBytes
		s.shardServed += m.Stats.ZcSendfileBytes + m.Stats.ZcFallbackBytes
	}
	if s.statusReqs, err = r.routeCount("GET /v1/jobs/{id}"); err != nil {
		return s, err
	}
	s.cpu, err = r.f.cpuSeconds()
	return s, err
}

// routeCount sums the gateway's nmo_http_requests_total for a route.
func (r *fleetRun) routeCount(route string) (float64, error) {
	resp, err := r.hc.Get("http://" + r.f.gw.addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	prefix := `nmo_http_requests_total{route="` + route + `"`
	var sum float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, sc.Err()
}

// bootRepeats is how many times a pass boots its fleet: one boot takes
// tens of milliseconds and its time is noisy, so setup_s is a median.
const bootRepeats = 11

// bootMedian boots the fleet bootRepeats times and keeps the last one
// up; it returns the median time from start to all daemons healthy.
func bootMedian(o options, shardAddrs, shardArgs []string) (*fleet, float64, error) {
	var boots []float64
	var f *fleet
	for i := 0; i < bootRepeats; i++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		var err error
		if f, err = bootFleet(o.bin, o.work, shardAddrs, shardArgs); err != nil {
			return nil, 0, err
		}
		boots = append(boots, time.Since(t0).Seconds())
	}
	return f, median(boots), nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// stepMetrics reduces the recorded steps to the client- and
// server-side per-layer medians.
func stepMetrics(steps []step, lay map[string]float64) {
	var submit, wait, result, unf, filt, lookup, queue, run, digest, spill, poll []float64
	for _, s := range steps {
		submit = append(submit, ms(s.submit))
		wait = append(wait, s.wait.Seconds())
		result = append(result, ms(s.result))
		if s.filtered {
			filt = append(filt, ms(s.trace))
		} else {
			unf = append(unf, ms(s.trace))
		}
		p := s.phases
		lookup = append(lookup, p.CacheLookupSec*1e3)
		queue = append(queue, p.QueueWaitSec)
		run = append(run, p.RunSec)
		digest = append(digest, p.DigestSec)
		spill = append(spill, p.SpillSec)
		server := p.CacheLookupSec + p.QueueWaitSec + p.RunSec + p.DigestSec + p.SpillSec
		poll = append(poll, (s.submit+s.wait).Seconds()-server)
	}
	for key, xs := range map[string][]float64{
		"service.submit_ms": submit, "service.wait_s": wait, "service.result_ms": result,
		"service.trace_unfiltered_ms": unf, "service.trace_filtered_ms": filt,
		"service.cache_lookup_ms": lookup, "service.queue_wait_s": queue, "service.run_s": run,
		"service.digest_s": digest, "service.spill_s": spill, "service.poll_delay_s": poll,
	} {
		if len(xs) > 0 {
			lay[key] = median(xs)
		}
	}
}

// deltaMetrics records the fleet counter deltas over the measured
// phases, for ops completed operations.
func deltaMetrics(a, b fleetSnap, ops int, lay map[string]float64) {
	d := func(x, y uint64) float64 { return float64(y) - float64(x) }
	lay["service.engine_runs"] = d(a.stats.EngineRuns, b.stats.EngineRuns)
	lay["service.cache_hits"] = d(a.stats.CacheHits, b.stats.CacheHits)
	lay["service.coalesced"] = d(a.stats.Coalesced, b.stats.Coalesced)
	lay["service.promotions"] = d(a.stats.CachePromotions, b.stats.CachePromotions)
	lay["service.demotions"] = d(a.stats.CacheDemotions, b.stats.CacheDemotions)
	lay["service.bytes_mem"] = float64(b.stats.CacheBytesMem)
	lay["service.bytes_disk"] = float64(b.stats.CacheBytesDisk)
	lay["zerocopy.sendfile_bytes"] = float64(b.stats.ZcSendfileBytes - a.stats.ZcSendfileBytes)
	lay["zerocopy.splice_bytes"] = float64(b.stats.ZcSpliceBytes - a.stats.ZcSpliceBytes)
	lay["zerocopy.fallback_bytes"] = float64(b.stats.ZcFallbackBytes - a.stats.ZcFallbackBytes)
	if served := b.shardServed - a.shardServed; served > 0 {
		lay["service.file_serve_share"] = float64(b.shardFile-a.shardFile) / float64(served)
	}
	if ops > 0 {
		lay["service.status_requests_per_job"] = (b.statusReqs - a.statusReqs) / float64(ops)
		lay["proc.cpu_s_per_job"] = (b.cpu - a.cpu) / float64(ops)
	}
}

// hopMs measures the gateway hop: the same result and trace GETs sent
// through nmogw and straight to the owning shard, alternating which
// goes first. It returns the difference of the medians, in ms.
func (r *fleetRun) hopMs(ids []string) (float64, error) {
	ctx := context.Background()
	get := func(cl *service.Client, id string) (time.Duration, error) {
		t0 := time.Now()
		if _, err := cl.Result(ctx, id); err != nil {
			return 0, err
		}
		opt := service.NewTraceOptions()
		if _, _, err := cl.DownloadTrace(ctx, id, opt, discard{}); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}
	var viaGW, direct []float64
	for round := 0; round < 3; round++ {
		for i, id := range ids {
			shard, inner, ok := splitGatewayID(id)
			if !ok || shard >= len(r.f.shards) {
				return 0, fmt.Errorf("unexpected gateway job ID %q", id)
			}
			scl := service.NewClient(r.f.shards[shard].addr)
			scl.HTTP = r.hc
			order := []bool{true, false}
			if (round+i)%2 == 1 {
				order = []bool{false, true}
			}
			for _, gw := range order {
				if gw {
					d, err := get(r.cl, id)
					if err != nil {
						return 0, err
					}
					viaGW = append(viaGW, ms(d))
				} else {
					d, err := get(scl, inner)
					if err != nil {
						return 0, err
					}
					direct = append(direct, ms(d))
				}
			}
		}
	}
	return median(viaGW) - median(direct), nil
}

// splitGatewayID splits a gateway job ID ("s<shard>-<inner>").
func splitGatewayID(id string) (int, string, bool) {
	rest, ok := strings.CutPrefix(id, "s")
	if !ok {
		return 0, "", false
	}
	idx, inner, ok := strings.Cut(rest, "-")
	n, err := strconv.Atoi(idx)
	return n, inner, ok && err == nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// recentIDs returns up to n job IDs of the last distinct steps.
func (r *fleetRun) recentIDs(n int) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]bool{}
	var ids []string
	for i := len(r.steps) - 1; i >= 0 && len(ids) < n; i-- {
		if id := r.steps[i].id; !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// finish applies the checks every fleet pass shares, and in a traced
// pass records the per-layer metrics and runs the gateway-hop probe.
func (r *fleetRun) finish(m *measurement, tr *tracer, before, after fleetSnap, ops int, wantRuns float64) error {
	m.attempted++
	runs := float64(after.stats.EngineRuns - before.stats.EngineRuns)
	if runs != wantRuns {
		m.failed++
		m.note("engine runs over the measured phases: %v, want %v", runs, wantRuns)
	}
	dead := r.f.deadErr()
	if dead != nil {
		m.attempted++
		m.failed++
		m.note("%v", dead)
	}
	hwm, err := r.f.peakRSS()
	if err != nil {
		return err
	}
	m.layer["proc.hwm_mib"] = hwm
	if tr != nil {
		stepMetrics(r.steps, m.layer)
		deltaMetrics(before, after, ops, m.layer)
		if dead != nil {
			return nil // the hop probe needs every shard
		}
		hop, err := r.hopMs(r.recentIDs(16))
		if err != nil {
			return fmt.Errorf("gateway hop probe: %w", err)
		}
		m.layer["gateway.hop_ms"] = hop
	}
	return nil
}

// loopMetrics sets the latency metrics from one phase.
func loopMetrics(m *measurement, res loopResult, slo time.Duration) {
	s := summarize(res.Latency)
	m.e2e["op_p50_ms"] = s.P50 * 1e3
	m.e2e["op_p90_ms"] = s.P90 * 1e3
	m.e2e["slo_ratio"] = sloRatio(res.Latency, slo.Seconds(), res.Failed)
	m.layer["e2e.samples"] = float64(s.N)
	m.layer["e2e.tail_ms"] = s.Tail * 1e3
	m.layer["e2e.tail_permille"] = float64(s.TailPM)
}

// countLoop adds a phase's operations and failures to m.
func countLoop(m *measurement, phase string, res loopResult) {
	m.attempted += res.Done + res.Failed
	m.failed += res.Failed
	for _, err := range res.Errs {
		m.note("%s: %v", phase, err)
	}
}

func measureMiss(o options, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	f, boot, err := bootMedian(o, nil, nil)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	r := newFleetRun(f, o.jobs)
	// Ready to measure means one job through every client first: the
	// boot alone takes about 10 ms, too little to time steadily.
	w0 := time.Now()
	warm := missSpecs(^o.seed, o.jobs)
	errs := make([]error, len(warm))
	var wg sync.WaitGroup
	for i := range warm {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = r.sequence(warm[i], service.NewTraceOptions(), false, "")
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	m.e2e["setup_s"] = boot + time.Since(w0).Seconds()
	r.steps, r.tr = nil, tr
	r.subs.Store(0)
	specs := missSpecs(o.seed, planSize/100)
	before, err := r.snap()
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(f.pids)
	res := closedLoop(o.jobs, time.Duration(o.seconds)*time.Second, len(specs), func(i int) (time.Time, error) {
		return r.sequence(specs[i], service.NewTraceOptions(), false, "")
	})
	m.e2e["rss_p90_mib"] = rss.finish()
	after, err := r.snap()
	if err != nil {
		return nil, err
	}
	countLoop(m, "fleet-miss", res)
	loopMetrics(m, res, missSLO)
	m.e2e["throughput_per_s"] = float64(res.Done) / res.Elapsed.Seconds()
	if err := r.finish(m, tr, before, after, res.Done, float64(r.subs.Load())); err != nil {
		return nil, err
	}
	if tr != nil {
		f.stop()
		if err := hitProbe(o, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// hitProbe runs the fleet-hit workload for the run time on a fleet of
// its own and records its figures under hit.* (and its
// generator's under loadgen.*) among the traced fleet-miss pass's
// per-layer metrics; its output checks count with the pass's.
// fleet-hit's millisecond latencies swing too far from run to run on
// a shared 2-vCPU host to gate on, so the cache-hit read path is
// measured here, per layer, instead.
func hitProbe(o options, m *measurement) error {
	h, err := measureHit(o, newTracer())
	if err != nil {
		return fmt.Errorf("hit probe: %w", err)
	}
	m.attempted += h.attempted
	m.failed += h.failed
	for _, n := range h.notes {
		m.note("hit probe: %s", n)
	}
	for to, v := range map[string]float64{
		"hit.p50_ms":                  h.e2e["op_p50_ms"],
		"hit.p90_ms":                  h.e2e["op_p90_ms"],
		"hit.tail_ms":                 h.layer["e2e.tail_ms"],
		"hit.tail_permille":           h.layer["e2e.tail_permille"],
		"hit.slo_ratio":               h.e2e["slo_ratio"],
		"hit.jobs_per_s":              h.e2e["throughput_per_s"],
		"hit.setup_s":                 h.e2e["setup_s"],
		"hit.trace_unfiltered_ms":     h.layer["service.trace_unfiltered_ms"],
		"hit.trace_filtered_ms":       h.layer["service.trace_filtered_ms"],
		"hit.engine_runs":             h.layer["service.engine_runs"],
		"hit.cache_hits":              h.layer["service.cache_hits"],
		"hit.promotions":              h.layer["service.promotions"],
		"hit.demotions":               h.layer["service.demotions"],
		"hit.file_serve_share":        h.layer["service.file_serve_share"],
		"hit.sendfile_bytes":          h.layer["zerocopy.sendfile_bytes"],
		"hit.gateway_hop_ms":          h.layer["gateway.hop_ms"],
		"hit.status_requests_per_job": h.layer["service.status_requests_per_job"],
		"loadgen.lag_p99_ms":          h.layer["loadgen.lag_p99_ms"],
		"loadgen.offered_per_s":       h.layer["loadgen.offered_per_s"],
	} {
		m.layer[to] = v
	}
	return nil
}

// fill is what warming recorded for one hit spec.
type fill struct {
	md5    string
	wallNs float64
}

// warm fills the cache with every spec and records each fill's MD5
// and simulated wall time.
func (r *fleetRun) warm(specs []service.JobSpec, workers int) ([]fill, error) {
	fills := make([]fill, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				info, err := r.cl.Submit(ctx, specs[i])
				if err == nil {
					info, err = r.cl.Wait(ctx, info.ID, 0)
				}
				var doc *service.ResultDoc
				if err == nil {
					doc, err = r.cl.Result(ctx, info.ID)
				}
				if err == nil && len(doc.Scenarios) != 1 {
					err = fmt.Errorf("result has %d scenarios", len(doc.Scenarios))
				}
				if err != nil {
					errs[i] = err
					continue
				}
				fills[i] = fill{md5: doc.Scenarios[0].TraceMD5, wallNs: doc.Scenarios[0].WallSec * 1e9}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warming the cache: %w", err)
		}
	}
	return fills, nil
}

// hitOp runs one planned hit request.
func (r *fleetRun) hitOp(specs []service.JobSpec, fills []fill, rq request) (time.Time, error) {
	opt := service.NewTraceOptions()
	switch rq.Filter {
	case filterWindow:
		wall := fills[rq.Spec].wallNs
		opt.FromNs = uint64(rq.Lo * wall)
		opt.ToNs = uint64(rq.Hi*wall) + 1
	case filterCore:
		opt.Core = rq.Core
	}
	return r.sequence(specs[rq.Spec], opt, rq.Filter != filterNone, fills[rq.Spec].md5)
}

func measureHit(o options, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	specs := hitSpecs(o.seed, hitSpecCount)
	want := map[string]int{}
	for rank, shard := range hitLayout {
		key, err := service.ContentAddress(specs[rank])
		if err != nil {
			return nil, err
		}
		want[key] = shard
	}
	addrs, err := pinnedAddrs(want)
	if err != nil {
		return nil, err
	}
	f, boot, err := bootMedian(o, addrs, []string{"-cache-mem-mib", hitCacheMemMiB})
	if err != nil {
		return nil, err
	}
	defer f.stop()
	r := newFleetRun(f, o.jobs)
	w0 := time.Now()
	s0, err := r.snap()
	if err != nil {
		return nil, err
	}
	fills, err := r.warm(specs, o.jobs)
	if err != nil {
		return nil, err
	}
	m.e2e["setup_s"] = boot + time.Since(w0).Seconds()
	before, err := r.snap()
	if err != nil {
		return nil, err
	}
	m.attempted++
	if runs := before.stats.EngineRuns - s0.stats.EngineRuns; runs != hitSpecCount {
		m.failed++
		m.note("warming ran the engine %d times, want %d", runs, hitSpecCount)
	}

	r.tr = tr
	rss := sampleRSS(f.pids)
	half := time.Duration(o.seconds) * time.Second / 2
	open := arrivalsWithin(o.seed, half, len(specs), hitRate, threadsPerSpec)
	ores := openLoop(open, o.jobs, 2*time.Second, func(i int) (time.Time, error) {
		return r.hitOp(specs, fills, open[i])
	})
	plan := hitRequests(o.seed+1, planSize, len(specs), 0, threadsPerSpec)
	cres := closedLoop(o.jobs, half, len(plan), func(i int) (time.Time, error) {
		return r.hitOp(specs, fills, plan[i])
	})
	m.e2e["rss_p90_mib"] = rss.finish()
	after, err := r.snap()
	if err != nil {
		return nil, err
	}
	countLoop(m, "fleet-hit open loop", ores)
	countLoop(m, "fleet-hit closed loop", cres)
	loopMetrics(m, ores, hitSLO)
	m.e2e["throughput_per_s"] = windowedRate(cres.Ends, half)

	lagP99 := 0.0
	if len(ores.Lag) > 0 {
		lagP99 = percentile(ores.Lag, 990)
	}
	m.layer["loadgen.lag_p99_ms"] = lagP99 * 1e3
	m.layer["loadgen.offered_per_s"] = float64(len(open)) / half.Seconds()
	if lagP99 > maxLag.Seconds() {
		// The host, not the fleet, was too busy to send on time: the
		// latency figures say nothing about the fleet, but no output
		// was wrong, so this is a warning rather than a failure.
		fmt.Fprintf(os.Stderr, "nmobench: open-loop generator lagged: p99 %.2f ms > %.2f ms; its latency figures are invalid\n",
			lagP99*1e3, ms(maxLag))
	}
	if err := r.finish(m, tr, before, after, ores.Done+cres.Done, 0); err != nil {
		return nil, err
	}
	return m, nil
}
