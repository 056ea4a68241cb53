package trace

import (
	"crypto/md5"
	"hash"
)

// Meta identifies a trace stream: the workload name plus the region
// and kernel name tables its samples index. Sinks that serialize or
// resolve indices receive it at construction time, before the first
// sample arrives.
type Meta struct {
	Workload string
	Regions  []string
	Kernels  []string
}

// Meta returns the trace's stream identity.
func (t *Trace) Meta() Meta {
	return Meta{Workload: t.Workload, Regions: t.Regions, Kernels: t.Kernels}
}

// Sink consumes a stream of attributed samples. The decode stage pushes
// every sample into the configured sink chain as it is attributed, so a
// run's memory footprint is whatever its sinks retain — an aggregate-
// only chain holds O(1), the Collect compat sink holds everything.
//
// Emit may retain nothing: the *Sample points into a caller-owned
// buffer that is reused after the call returns. Sinks that keep samples
// must copy the value. Close flushes buffered state (footers, final
// blocks); a sink must not be emitted to after Close.
type Sink interface {
	Emit(*Sample) error
	Close() error
}

// Tee fans one sample stream out to several sinks, emitting to each in
// order. Close closes every sink and returns the first error.
type Tee struct {
	sinks []Sink
	// batch mirrors sinks through ToBatch, so EmitBatch fans a batch
	// out natively instead of degrading to per-sample dispatch.
	batch []BatchSink
}

// NewTee builds a fan-out sink. A single-element tee adds one pointer
// hop; callers with exactly one sink should use it directly.
func NewTee(sinks ...Sink) *Tee {
	t := &Tee{sinks: sinks, batch: make([]BatchSink, len(sinks))}
	for i, sk := range sinks {
		t.batch[i] = ToBatch(sk)
	}
	return t
}

// Emit pushes the sample to every sink, stopping at the first error.
func (t *Tee) Emit(s *Sample) error {
	for _, sk := range t.sinks {
		if err := sk.Emit(s); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every sink (all of them, even after an error) and
// returns the first error.
func (t *Tee) Close() error {
	var first error
	for _, sk := range t.sinks {
		if err := sk.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Collect is the compatibility sink: it materializes the stream into an
// in-memory *Trace, exactly as the pre-streaming pipeline did. Max
// bounds retained samples (< 0 = unlimited, matching MaxSamples
// semantics where 0 stores nothing); samples arriving past the cap are
// counted in Truncated instead of being silently dropped.
type Collect struct {
	Trace *Trace
	Max   int
	// Truncated counts samples dropped at the Max cap.
	Truncated uint64
}

// NewCollect builds a collecting sink over tr (which must carry the
// stream's name tables already).
func NewCollect(tr *Trace, max int) *Collect {
	return &Collect{Trace: tr, Max: max}
}

// Emit appends a copy of the sample, or counts it as truncated once the
// cap is reached.
func (c *Collect) Emit(s *Sample) error {
	if c.Max >= 0 && len(c.Trace.Samples) >= c.Max {
		c.Truncated++
		return nil
	}
	c.Trace.Samples = append(c.Trace.Samples, *s)
	return nil
}

// Close is a no-op; the trace is complete after the last Emit.
func (c *Collect) Close() error { return nil }

// Hash maintains the rolling MD5 of the emitted sample stream — the
// same checksum Trace.MD5 computes over a materialized trace, without
// retaining any sample.
type Hash struct {
	h       hash.Hash
	buf     [sampleWireSize]byte
	n       uint64
	scratch []byte // batch encode buffer, grown on demand
}

// NewHash builds a rolling-checksum sink.
func NewHash() *Hash { return &Hash{h: md5.New()} }

// Emit folds the sample's wire encoding into the hash.
func (h *Hash) Emit(s *Sample) error {
	encodeSample(h.buf[:], s)
	h.h.Write(h.buf[:])
	h.n++
	return nil
}

// Close is a no-op.
func (h *Hash) Close() error { return nil }

// Sum16 returns the current checksum. It may be read mid-stream.
func (h *Hash) Sum16() [16]byte {
	var out [16]byte
	copy(out[:], h.h.Sum(nil))
	return out
}

// Count returns the number of hashed samples.
func (h *Hash) Count() uint64 { return h.n }

// CountHist counts samples per name-table index online — the streaming
// equivalent of Trace.CountByRegion / CountByKernel. Index -1 (and any
// out-of-table index) lands in the "-" bucket.
type CountHist struct {
	names []string
	by    []uint64
	other uint64
	// kernel selects the kernel index instead of the region index — a
	// field rather than a selector closure so the batch path hoists the
	// choice out of the per-sample loop.
	kernel bool
}

// NewRegionHist counts by region index.
func NewRegionHist(meta Meta) *CountHist {
	return &CountHist{names: meta.Regions, by: make([]uint64, len(meta.Regions))}
}

// NewKernelHist counts by kernel (tagged phase) index.
func NewKernelHist(meta Meta) *CountHist {
	return &CountHist{names: meta.Kernels, by: make([]uint64, len(meta.Kernels)),
		kernel: true}
}

// Emit counts the sample.
func (c *CountHist) Emit(s *Sample) error {
	idx := s.Region
	if c.kernel {
		idx = s.Kernel
	}
	if idx < 0 || int(idx) >= len(c.by) {
		c.other++
		return nil
	}
	c.by[idx]++
	return nil
}

// Close is a no-op.
func (c *CountHist) Close() error { return nil }

// Counts resolves the histogram to names, matching the map shape of
// Trace.CountByRegion (the "-" key holds unattributed samples).
func (c *CountHist) Counts() map[string]int {
	out := make(map[string]int, len(c.names)+1)
	for i, n := range c.by {
		if n > 0 {
			out[c.names[i]] += int(n)
		}
	}
	if c.other > 0 {
		out["-"] = int(c.other)
	}
	return out
}

// LevelHist counts samples per memory level (0=L1 … 3=DRAM; deeper
// levels clamp to DRAM) — the cache-activity view SPE data-source
// packets provide. postproc.LevelAgg wraps it for trace scans.
type LevelHist struct {
	By [4]uint64
}

// Emit counts the sample's data-source level.
func (l *LevelHist) Emit(s *Sample) error {
	lv := s.Level
	if lv > 3 {
		lv = 3
	}
	l.By[lv]++
	return nil
}

// Close is a no-op.
func (l *LevelHist) Close() error { return nil }

// Aggregate is the aggregate-only chain the sweep drivers use: rolling
// MD5 plus level/region/kernel histograms, with no per-sample retention
// and no per-sample allocation. Sweeps that only consume accuracy /
// overhead / loss counters run entire grids through it with O(1) sample
// memory per scenario.
type Aggregate struct {
	Hash    Hash
	Levels  LevelHist
	Regions *CountHist
	Kernels *CountHist
}

// NewAggregate builds the aggregate-only sink for a stream.
func NewAggregate(meta Meta) *Aggregate {
	return &Aggregate{
		Hash:    Hash{h: md5.New()},
		Regions: NewRegionHist(meta),
		Kernels: NewKernelHist(meta),
	}
}

// Emit updates every aggregate.
func (a *Aggregate) Emit(s *Sample) error {
	a.Hash.Emit(s)
	a.Levels.Emit(s)
	a.Regions.Emit(s)
	return a.Kernels.Emit(s)
}

// Close is a no-op.
func (a *Aggregate) Close() error { return nil }

// Sum16 returns the stream checksum (equal to Trace.MD5 over the same
// samples).
func (a *Aggregate) Sum16() [16]byte { return a.Hash.Sum16() }

// SeriesBuilder grows a temporal Series online, maintaining max / sum /
// count incrementally so aggregate readers need not walk the points.
// With KeepPoints false the points themselves are discarded and only
// the aggregates survive — the bounded-memory mode for timelines nobody
// plots.
type SeriesBuilder struct {
	KeepPoints bool
	s          Series
	n          int
	sum, max   float64
	last       Point
}

// NewSeriesBuilder starts a named series that retains points.
func NewSeriesBuilder(name, unit string) *SeriesBuilder {
	return &SeriesBuilder{KeepPoints: true, s: Series{Name: name, Unit: unit}}
}

// Add appends one (time, value) observation.
func (b *SeriesBuilder) Add(tsec, v float64) {
	if b.KeepPoints {
		b.s.Points = append(b.s.Points, Point{TimeSec: tsec, Value: v})
	}
	if v > b.max {
		b.max = v
	}
	b.sum += v
	b.n++
	b.last = Point{TimeSec: tsec, Value: v}
}

// Series returns the built series (points empty when KeepPoints was
// off).
func (b *SeriesBuilder) Series() Series { return b.s }

// Max returns the online maximum (0 for empty).
func (b *SeriesBuilder) Max() float64 { return b.max }

// Mean returns the online mean (0 for empty).
func (b *SeriesBuilder) Mean() float64 {
	if b.n == 0 {
		return 0
	}
	return b.sum / float64(b.n)
}

// Count returns the number of observations.
func (b *SeriesBuilder) Count() int { return b.n }

// Last returns the most recent point (zero Point for empty).
func (b *SeriesBuilder) Last() Point { return b.last }
