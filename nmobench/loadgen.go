package main

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nmo/internal/service"
)

// fleetApps are the cycle-level workloads of the fleet spec mix.
var fleetApps = []string{"stream", "cfd", "bfs"}

// missScenario is the dense-sampling job of a fleet-miss spec: a few
// tens of milliseconds of engine time and a trace of 15 to 30 KB. A
// job that ends before the client's first 100 ms status poll is seen
// at that poll even on a host twice as slow; a longer job's latency
// would jump a whole poll interval whenever the host's speed moved it
// across a poll. Only the seed varies between specs of one app, so
// every spec is a distinct content address with the same cost.
func missScenario(app string, seed uint64) service.ScenarioSpec {
	sp := service.ScenarioSpec{
		Workload: app, Threads: 2, Iters: 1, Cores: 2, Seed: seed,
		Mode: "sample", Period: 64, AuxMiB: 1,
	}
	switch app {
	case "stream":
		sp.Elems = 20_000
	case "cfd":
		sp.Elems = 8_000
	case "bfs":
		sp.Elems = 1_500
	}
	return sp
}

// fleetScenario is the dense-sampling job of a fleet-hit spec: a
// trace of 50 to 150 KB. Only the seed varies between specs of one
// app.
func fleetScenario(app string, seed uint64) service.ScenarioSpec {
	sp := service.ScenarioSpec{
		Workload: app, Threads: 4, Iters: 1, Cores: 8, Seed: seed,
		Mode: "sample", Period: 128, AuxMiB: 4,
	}
	switch app {
	case "stream":
		sp.Elems = 400_000
	case "cfd":
		sp.Elems = 80_000
	case "bfs":
		sp.Elems = 10_000
	}
	return sp
}

// subSeed derives an independent stream seed for one purpose, so that
// changing how one stream is drawn never shifts another.
func subSeed(seed uint64, purpose uint64) int64 {
	z := seed + 0x9e3779b97f4a7c15*(purpose+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

const (
	streamMix = iota
	streamSpecSeeds
	streamArrivals
	streamPicks
	streamFilters
)

// appMix returns n app names in blocks of three, each block a seeded
// permutation of fleetApps: every window of three jobs carries one of
// each app, so the cost mix is the same at every seed.
func appMix(seed uint64, n int) []string {
	rng := rand.New(rand.NewSource(subSeed(seed, streamMix)))
	out := make([]string, 0, n+len(fleetApps))
	for len(out) < n {
		for _, i := range rng.Perm(len(fleetApps)) {
			out = append(out, fleetApps[i])
		}
	}
	return out[:n]
}

// specSeeds returns n distinct nonzero spec seeds drawn from seed.
func specSeeds(seed uint64, n int) []uint64 {
	rng := rand.New(rand.NewSource(subSeed(seed, streamSpecSeeds)))
	seen := map[uint64]bool{0: true}
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := rng.Uint64() >> 16
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// missSpecs is the fleet-miss job sequence: n distinct specs.
func missSpecs(seed uint64, n int) []service.JobSpec {
	apps, seeds := appMix(seed, n), specSeeds(seed, n)
	out := make([]service.JobSpec, n)
	for i := range out {
		out[i] = service.JobSpec{Scenarios: []service.ScenarioSpec{missScenario(apps[i], seeds[i])}}
	}
	return out
}

// largeTraceElems sizes a stream spec whose trace (about 1.2 MB) is
// larger than a 1 MiB memory tier, so the cache never promotes it and
// always serves it from its spill file.
const largeTraceElems = 3_000_000

// hitSpecs is the fleet-hit working set: k distinct specs. The spec of
// popularity rank r runs fleetApps[r%3], except the least popular one,
// which is large (see largeTraceElems): under 0.5% of requests at
// k = 48, so it moves no latency percentile up to p99, yet keeps the
// spill-file path serving. Tying sizes to ranks keeps the
// popularity-weighted trace size the same at every seed; the seed
// picks the spec seeds.
func hitSpecs(seed uint64, k int) []service.JobSpec {
	seeds := specSeeds(seed^0x5bd1e995, k)
	out := make([]service.JobSpec, k)
	for r := range out {
		sp := fleetScenario(fleetApps[r%len(fleetApps)], seeds[r])
		if r == k-1 {
			sp = fleetScenario("stream", seeds[r])
			sp.Elems = largeTraceElems
		}
		out[r] = service.JobSpec{Scenarios: []service.ScenarioSpec{sp}}
	}
	return out
}

// filterKind says how a trace download is filtered.
type filterKind int

const (
	filterNone filterKind = iota
	filterWindow
	filterCore
)

// request is one planned fleet-hit request: which spec, how its trace
// download is filtered, and (open loop) when it is due.
type request struct {
	At     time.Duration
	Spec   int
	Filter filterKind
	Lo, Hi float64 // window bounds as fractions of the run's wall time
	Core   int
}

// hitRequests plans n requests over k specs: Zipf popularity
// (s=1.1), a quarter of the downloads filtered by a time window or a
// core. With rate > 0 it also draws Poisson arrival times.
func hitRequests(seed uint64, n, k int, rate float64, threads int) []request {
	arr := rand.New(rand.NewSource(subSeed(seed, streamArrivals)))
	pick := rand.New(rand.NewSource(subSeed(seed, streamPicks)))
	filt := rand.New(rand.NewSource(subSeed(seed, streamFilters)))
	zipf := rand.NewZipf(pick, 1.1, 1, uint64(k-1))
	out := make([]request, n)
	var at float64
	for i := range out {
		if rate > 0 {
			at += arr.ExpFloat64() / rate
		}
		r := request{At: time.Duration(at * float64(time.Second)), Spec: int(zipf.Uint64())}
		if filt.Float64() < 0.25 {
			if filt.Intn(2) == 0 {
				r.Filter = filterWindow
				a, b := filt.Float64(), filt.Float64()
				r.Lo, r.Hi = min(a, b), max(a, b)
			} else {
				r.Filter = filterCore
				r.Core = filt.Intn(threads)
			}
		}
		out[i] = r
	}
	return out
}

// arrivalsWithin plans the open-loop requests due in [0, d).
func arrivalsWithin(seed uint64, d time.Duration, k int, rate float64, threads int) []request {
	n := int(rate*d.Seconds()*1.5) + 64
	reqs := hitRequests(seed, n, k, rate, threads)
	for i, r := range reqs {
		if r.At >= d {
			return reqs[:i]
		}
	}
	return reqs
}

// errNotSent marks an open-loop request the generator could not start
// before the phase's grace period ran out (a backlog that never
// drained). It counts as a failure.
var errNotSent = errors.New("open loop: request not sent before the phase ended")

// errPlanExhausted fails a closed-loop phase that ran out of planned
// operations before its time was up, rather than ending it short.
var errPlanExhausted = errors.New("closed loop: operation plan exhausted before the deadline")

// loopResult is one load phase's outcome.
type loopResult struct {
	Latency []float64 // seconds, successful operations only
	Lag     []float64 // open loop: seconds the generator started late
	Done    int       // operations that completed successfully
	Failed  int       // operations that failed or were never sent
	Elapsed time.Duration
	Ends    []time.Duration // closed loop: completion times of successes
	Errs    []error         // first few failures, for the log
}

func (r *loopResult) fail(err error) {
	r.Failed++
	if len(r.Errs) < 5 {
		r.Errs = append(r.Errs, err)
	}
}

// openLoop sends reqs on their schedule with at most workers in
// flight. Latency runs from each request's scheduled send, so a stall
// also charges the requests queued behind it. Lag is how late a
// worker that was free at the due time actually started: the
// generator's own lateness, apart from waiting on the system. A
// request still unsent grace after the last due time fails. do
// returns when the operation's result was complete, which may be
// before do itself returns (output checks run after).
func openLoop(reqs []request, workers int, grace time.Duration, do func(i int) (time.Time, error)) loopResult {
	type outcome struct {
		lat, lag float64
		err      error
	}
	outs := make([]outcome, len(reqs))
	var last time.Duration
	if len(reqs) > 0 {
		last = reqs[len(reqs)-1].At
	}
	start := time.Now()
	cutoff := start.Add(last + grace)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].At)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				if now.After(cutoff) {
					outs[i].err = errNotSent
					continue
				}
				ref := due
				if free.After(due) {
					ref = free
				}
				outs[i].lag = now.Sub(ref).Seconds()
				var done time.Time
				done, outs[i].err = do(i)
				outs[i].lat = done.Sub(due).Seconds()
				free = time.Now()
			}
		}()
	}
	wg.Wait()
	res := loopResult{Elapsed: time.Since(start)}
	for _, o := range outs {
		if o.err != nil {
			res.fail(o.err)
			continue
		}
		res.Done++
		res.Latency = append(res.Latency, o.lat)
		res.Lag = append(res.Lag, o.lag)
	}
	return res
}

// closedLoop runs workers clients, each starting its next operation
// when the previous one completes, until d has passed; operations in
// flight at the deadline finish. Operation indices are handed out in
// order, so the sequence of work is the same at any interleaving.
// Running out of indices (limit) before the deadline is a failure.
func closedLoop(workers int, d time.Duration, limit int, do func(i int) (time.Time, error)) loopResult {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	var mu sync.Mutex
	var res loopResult
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= limit {
					if i == limit {
						mu.Lock()
						res.fail(errPlanExhausted)
						mu.Unlock()
					}
					return
				}
				t0 := time.Now()
				done, err := do(i)
				lat := done.Sub(t0).Seconds()
				mu.Lock()
				if err != nil {
					res.fail(err)
				} else {
					res.Done++
					res.Latency = append(res.Latency, lat)
					res.Ends = append(res.Ends, done.Sub(start))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// rateWindows is how many equal windows windowedRate splits a
// closed-loop phase into.
const rateWindows = 5

// windowedRate is the median over rateWindows equal windows of d of
// the completions per second in each: a stall or a burst of host noise
// moves one window, not the reported rate.
func windowedRate(ends []time.Duration, d time.Duration) float64 {
	counts := make([]float64, rateWindows)
	w := d / rateWindows
	for _, e := range ends {
		if i := int(e / w); i < rateWindows {
			counts[i]++
		}
	}
	return median(counts) / w.Seconds()
}
