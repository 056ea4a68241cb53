package main

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestOpenLoopMeasuresFromScheduledSend(t *testing.T) {
	const work = 20 * time.Millisecond
	// Three requests due at once on one worker: each waits for the
	// ones before it, and that wait is part of its latency.
	reqs := []request{{At: 0}, {At: 0}, {At: 0}}
	res := openLoop(reqs, 1, time.Second, func(int) (time.Time, error) {
		time.Sleep(work)
		return time.Now(), nil
	})
	if res.Done != 3 || res.Failed != 0 {
		t.Fatalf("done %d failed %d", res.Done, res.Failed)
	}
	for i, lat := range res.Latency {
		min := float64(i+1) * work.Seconds()
		if lat < min || lat > min+0.05 {
			t.Errorf("request %d latency %.4fs, want about %.4fs", i, lat, min)
		}
	}
	// The worker was busy, not late: waiting on the system is not lag.
	for i, lag := range res.Lag {
		if lag > 0.025 {
			t.Errorf("request %d lag %.4fs with a worker that was never idle", i, lag)
		}
	}
}

func TestOpenLoopLagIsGeneratorLateness(t *testing.T) {
	reqs := []request{{At: 10 * time.Millisecond}, {At: 30 * time.Millisecond}}
	res := openLoop(reqs, 1, time.Second, func(int) (time.Time, error) { return time.Now(), nil })
	if len(res.Lag) != 2 {
		t.Fatalf("lags %v", res.Lag)
	}
	for _, lag := range res.Lag {
		if lag < 0 || lag > 0.025 {
			t.Errorf("idle generator lag %.4fs", lag)
		}
	}
	for _, lat := range res.Latency {
		if lat < 0 || lat > 0.025 {
			t.Errorf("latency of an instant operation %.4fs", lat)
		}
	}
}

func TestOpenLoopCountsUnsentRequestsAsFailed(t *testing.T) {
	reqs := []request{{At: 0}, {At: 0}, {At: 0}}
	res := openLoop(reqs, 1, 5*time.Millisecond, func(int) (time.Time, error) {
		time.Sleep(20 * time.Millisecond)
		return time.Now(), nil
	})
	if res.Done != 1 || res.Failed != 2 || !errors.Is(res.Errs[0], errNotSent) {
		t.Fatalf("done %d failed %d errs %v", res.Done, res.Failed, res.Errs)
	}
}

func TestClosedLoopStopsAtLimitAndCountsFailures(t *testing.T) {
	fail := errors.New("boom")
	res := closedLoop(2, time.Minute, 10, func(i int) (time.Time, error) {
		if i%5 == 0 {
			return time.Now(), fail
		}
		return time.Now(), nil
	})
	// Two failed operations, plus the plan running out early.
	exhausted := 0
	for _, err := range res.Errs {
		if errors.Is(err, errPlanExhausted) {
			exhausted++
		}
	}
	if res.Done != 8 || res.Failed != 3 || exhausted != 1 {
		t.Fatalf("done %d failed %d errs %v", res.Done, res.Failed, res.Errs)
	}
}

func TestPlansAreDeterministicPerSeed(t *testing.T) {
	a := hitRequests(7, 500, 64, 330, 4)
	b := hitRequests(7, 500, 64, 330, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different arrival schedule, Zipf picks or filters")
	}
	c := hitRequests(8, 500, 64, 330, 4)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same plan")
	}
	if !reflect.DeepEqual(missSpecs(7, 50), missSpecs(7, 50)) {
		t.Fatal("same seed, different miss spec mix")
	}
	if !reflect.DeepEqual(hitSpecs(7, 64), hitSpecs(7, 64)) {
		t.Fatal("same seed, different hit specs")
	}
	if reflect.DeepEqual(missSpecs(7, 50), missSpecs(8, 50)) {
		t.Fatal("different seeds gave the same miss specs")
	}
}

func TestPlanShapes(t *testing.T) {
	reqs := hitRequests(3, 20000, 64, 330, 4)
	var filtered, top int
	var prev time.Duration
	for _, r := range reqs {
		if r.At < prev {
			t.Fatal("arrivals not in time order")
		}
		prev = r.At
		if r.Spec < 0 || r.Spec >= 64 {
			t.Fatalf("pick %d outside the working set", r.Spec)
		}
		if r.Spec == 0 {
			top++
		}
		if r.Filter != filterNone {
			filtered++
		}
		if r.Filter == filterWindow && !(r.Lo <= r.Hi) || r.Filter == filterCore && (r.Core < 0 || r.Core >= 4) {
			t.Fatalf("bad filter %+v", r)
		}
	}
	if f := float64(filtered) / float64(len(reqs)); f < 0.23 || f > 0.27 {
		t.Errorf("filtered share %.3f, want about 0.25", f)
	}
	if top < len(reqs)/10 {
		t.Errorf("rank 0 drew %d of %d: not Zipf-popular", top, len(reqs))
	}
	// Mean rate within 5% of the plan.
	if rate := float64(len(reqs)) / prev.Seconds(); rate < 313 || rate > 347 {
		t.Errorf("arrival rate %.1f/s, want about 330", rate)
	}
	due := arrivalsWithin(3, time.Second, 64, 330, 4)
	if len(due) == 0 || due[len(due)-1].At >= time.Second {
		t.Fatalf("arrivalsWithin returned %d requests past the window", len(due))
	}

	specs := missSpecs(5, 300)
	seen := map[uint64]bool{}
	for i, sp := range specs {
		s := sp.Scenarios[0]
		if seen[s.Seed] || s.Seed == 0 {
			t.Fatalf("spec %d repeats or zeroes seed %d", i, s.Seed)
		}
		seen[s.Seed] = true
	}
	for b := 0; b+3 <= len(specs); b += 3 {
		apps := map[string]bool{}
		for _, sp := range specs[b : b+3] {
			apps[sp.Scenarios[0].Workload] = true
		}
		if len(apps) != 3 {
			t.Fatalf("block %d is not one of each app", b/3)
		}
	}
}

func TestWindowedRateIgnoresOneStalledWindow(t *testing.T) {
	var ends []time.Duration
	for w := 0; w < rateWindows; w++ {
		n := 100
		if w == 2 {
			n = 10 // a stall
		}
		for i := 0; i < n; i++ {
			ends = append(ends, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	// Completions after the phase (operations in flight at the
	// deadline) count toward no window.
	ends = append(ends, 5*time.Second+time.Millisecond)
	if got := windowedRate(ends, 5*time.Second); got != 100 {
		t.Fatalf("rate %v, want 100/s", got)
	}
}
