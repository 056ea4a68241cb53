package main

import "testing"

func TestTailPermilleRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		pm     int
		exists bool
	}{
		{0, 1000, false},
		{19, 1000, false}, // 9 beyond the median: report the maximum
		{20, 500, true},
		{99, 500, true},
		{100, 900, true},
		{999, 900, true},
		{1000, 990, true},
		{9999, 990, true},
		{10000, 999, true},
	} {
		pm, ok := tailPermille(c.n)
		if pm != c.pm || ok != c.exists {
			t.Errorf("tailPermille(%d) = %d, %v; want %d, %v", c.n, pm, ok, c.pm, c.exists)
		}
	}
}

func TestSummarizeReportsCountAndObservedValues(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	s := summarize(xs)
	if s.N != 100 || s.TailPM != 900 {
		t.Fatalf("N=%d TailPM=%d, want 100, 900", s.N, s.TailPM)
	}
	// Nearest rank: the 50th and 90th smallest observations.
	if s.P50 != 50 || s.Tail != 90 {
		t.Fatalf("P50=%v Tail=%v, want 50, 90", s.P50, s.Tail)
	}
	one := summarize([]float64{7})
	if one.P50 != 7 || one.Tail != 7 || one.TailPM != 1000 {
		t.Fatalf("single sample: %+v", one)
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if xs[0] != 3 || xs[1] != 1 {
		t.Fatalf("input reordered: %v", xs)
	}
}
