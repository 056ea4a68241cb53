package main

import (
	"math"
	"sort"
)

// tailLadder lists the candidate tail percentiles in per-mille,
// highest first. minBeyond is how many samples must lie beyond a
// percentile before it may be reported: a tail read from fewer
// samples is one outlier, not a percentile.
var tailLadder = []int{999, 990, 900, 500}

const minBeyond = 10

// tailPermille picks the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it. ok is false when even the
// median has fewer than minBeyond samples beyond it; callers then
// report the maximum.
func tailPermille(n int) (pm int, ok bool) {
	for _, pm := range tailLadder {
		if n*(1000-pm)/1000 >= minBeyond {
			return pm, true
		}
	}
	return 1000, false
}

// nearestRank returns the pm-per-mille percentile of sorted by the
// nearest-rank rule: always an observed value, never interpolated.
func nearestRank(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := (len(sorted)*pm + 999) / 1000
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

// summary is a latency sample set reduced by the benchmark's rule.
type summary struct {
	N      int     // samples
	P50    float64 // median (nearest rank)
	P90    float64
	Tail   float64 // value at TailPM
	TailPM int     // per-mille of the reported tail; 1000 = maximum
}

// summarize applies the percentile rule to xs (which it sorts).
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	pm, _ := tailPermille(len(xs))
	return summary{N: len(xs), P50: nearestRank(xs, 500), P90: nearestRank(xs, 900), Tail: nearestRank(xs, pm), TailPM: pm}
}

// percentile returns the pm-per-mille nearest-rank percentile of xs
// without modifying it.
func percentile(xs []float64, pm int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, pm)
}

// median is percentile 500.
func median(xs []float64) float64 { return percentile(xs, 500) }
