package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.grid", Start: 0, End: 100},
		// Two parallel children overlapping on [30,50]: they cover
		// [10,70], 60 units, once.
		{ID: 2, Parent: 1, Name: "engine.scenario", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "engine.scenario", Start: 30, End: 70},
		// A child running past its parent is clipped to the parent.
		{ID: 4, Parent: 1, Name: "engine.scenario", Start: 90, End: 120},
		// Child 2's aggregated child covers 15 of its 40 units.
		{ID: 5, Parent: 2, Name: "trace.sink", Start: 12, End: 48, Busy: 15},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"bench.grid":      100 - 60 - 10,
		"engine.scenario": (40 - 15) + 40 + 30,
		"trace.sink":      15,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %d, want %d", name, self[name], d)
		}
	}
	shares := layerShares(self)
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
	if got := shares["trace"]; math.Abs(got-15.0/140) > 1e-12 {
		t.Fatalf("share[trace] = %v, want %v", got, 15.0/140)
	}
}

func TestChildrenCoveringMoreThanParent(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "service.wait", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "engine.run", Start: 0, End: 10, Busy: 30},
	}
	if got := selfTimes(spans)["service.wait"]; got != 0 {
		t.Fatalf("self = %d, want 0 (never negative)", got)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *tracer
	h := tr.begin("x", 0, "")
	if h.id() != 0 {
		t.Fatal("nil tracer handed out an ID")
	}
	h.end()
	tr.aggregate("y", 0, 0, 1, 1)
	if tr.snapshot() != nil {
		t.Fatal("nil tracer recorded spans")
	}
}
