package analysis

import (
	"math"
	"sort"

	"nmo/internal/trace"
)

// The paper's future work (§IX) plans to evaluate sampling bias when
// the same event appears at different code positions and to trace
// cache activities. This file implements the bias analysis; the
// cache-activity view is the per-level sample count of
// trace.LevelHist, which SPE data-source packets make free once
// samples decode.

// PCBias quantifies how unevenly samples distribute over program
// counters against a reference distribution of the true per-PC
// frequencies. The result is the total variation distance in [0, 1]:
// 0 means sampling matched the true mix perfectly, 1 means total
// divergence. With interval-counter dither enabled the distance
// should be near 0; without it, phase lock with loop bodies inflates
// it.
func PCBias(tr *trace.Trace, truth map[uint64]float64) float64 {
	if len(truth) == 0 {
		return 0
	}
	if len(tr.Samples) == 0 {
		// No samples at all against a nonempty truth is the extreme
		// form of bias: phase lock onto a code position the filter
		// rejects collects nothing.
		return 1
	}
	counts := make(map[uint64]float64)
	for i := range tr.Samples {
		counts[tr.Samples[i].PC]++
	}
	n := float64(len(tr.Samples))
	var dist float64
	seen := make(map[uint64]bool, len(truth))
	for pc, p := range truth {
		dist += math.Abs(counts[pc]/n - p)
		seen[pc] = true
	}
	for pc, c := range counts {
		if !seen[pc] {
			dist += c / n
		}
	}
	return dist / 2
}

// PCHistogram returns per-PC sample counts sorted by descending count
// — the "which instructions are sampled" view.
type PCCount struct {
	PC    uint64
	Count int
}

// PCHistogramOf builds the histogram.
func PCHistogramOf(tr *trace.Trace) []PCCount {
	counts := make(map[uint64]int)
	for i := range tr.Samples {
		counts[tr.Samples[i].PC]++
	}
	out := make([]PCCount, 0, len(counts))
	for pc, c := range counts {
		out = append(out, PCCount{PC: pc, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	return out
}
