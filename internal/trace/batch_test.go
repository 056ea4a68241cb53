package trace

import (
	"bytes"
	"testing"
)

// emitBatches feeds tr to a batch sink in the given split sizes (the
// last chunk takes whatever remains), then closes it.
func emitBatches(t *testing.T, sk BatchSink, tr *Trace, split int) {
	t.Helper()
	samples := tr.Samples
	for len(samples) > 0 {
		n := split
		if n > len(samples) {
			n = len(samples)
		}
		if err := sk.EmitBatch(samples[:n]); err != nil {
			t.Fatal(err)
		}
		samples = samples[n:]
	}
	if err := sk.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchAdapterWrapsLegacySinks: ToBatch returns native batch sinks
// unchanged and wraps plain ones in the per-sample loop adapter.
func TestBatchAdapterWrapsLegacySinks(t *testing.T) {
	h := NewHash()
	if ToBatch(h) != BatchSink(h) {
		t.Error("native batch sink was re-wrapped")
	}
	src := synthTrace(50)
	f := &countSink{}
	emitBatches(t, ToBatch(f), src, 7)
	if f.n != 50 {
		t.Errorf("adapter delivered %d samples, want 50", f.n)
	}
}

type countSink struct{ n int }

func (c *countSink) Emit(*Sample) error { c.n++; return nil }
func (c *countSink) Close() error       { return nil }

// TestBatchSinksMatchSequentialEmit proves the contract every native
// EmitBatch must satisfy: for any split of the stream into batches, the
// final sink state is identical to per-sample Emit.
func TestBatchSinksMatchSequentialEmit(t *testing.T) {
	src := synthTrace(333)
	meta := src.Meta()
	for _, split := range []int{1, 2, 16, 100, 333, 1000} {
		// Hash: identical rolling MD5 and count.
		h := NewHash()
		emitBatches(t, h, src, split)
		if h.Sum16() != src.MD5() || h.Count() != 333 {
			t.Errorf("split %d: hash %x count %d", split, h.Sum16(), h.Count())
		}

		// Collect without cap: identical sample slice.
		dst := &Trace{}
		emitBatches(t, NewCollect(dst, -1), src, split)
		if len(dst.Samples) != 333 || dst.MD5() != src.MD5() {
			t.Errorf("split %d: collect stored %d", split, len(dst.Samples))
		}

		// Collect with a cap that lands mid-batch: same stored prefix
		// and truncation accounting as the per-sample path.
		capped := &Trace{}
		cs := NewCollect(capped, 50)
		emitBatches(t, cs, src, split)
		if len(capped.Samples) != 50 || cs.Truncated != 283 {
			t.Errorf("split %d: capped stored %d truncated %d", split, len(capped.Samples), cs.Truncated)
		}

		// Histograms: identical counts.
		rh, kh := NewRegionHist(meta), NewKernelHist(meta)
		var lh LevelHist
		emitBatches(t, NewTee(rh, kh, &lh), src, split)
		wantR, wantK := src.CountByRegion(), src.CountByKernel()
		for k, v := range wantR {
			if rh.Counts()[k] != v {
				t.Errorf("split %d: region %q = %d, want %d", split, k, rh.Counts()[k], v)
			}
		}
		for k, v := range wantK {
			if kh.Counts()[k] != v {
				t.Errorf("split %d: kernel %q = %d, want %d", split, k, kh.Counts()[k], v)
			}
		}
		var total uint64
		for _, n := range lh.By {
			total += n
		}
		if total != 333 {
			t.Errorf("split %d: level total = %d", split, total)
		}

		// Aggregate: every component updated.
		a := NewAggregate(meta)
		emitBatches(t, a, src, split)
		if a.Sum16() != src.MD5() || a.Hash.Count() != 333 {
			t.Errorf("split %d: aggregate hash diverged", split)
		}
	}
}

// TestWriterV2EmitBatchByteIdentity: batched emission produces the
// byte-identical file — v2 and v2.1 — for every batch split, including
// splits that straddle block boundaries.
func TestWriterV2EmitBatchByteIdentity(t *testing.T) {
	src := synthTrace(200)
	for _, compress := range []bool{false, true} {
		newW := NewWriterV2
		if compress {
			newW = NewWriterV21
		}
		var ref bytes.Buffer
		w, err := newW(&ref, src.Meta(), 16)
		if err != nil {
			t.Fatal(err)
		}
		for i := range src.Samples {
			if err := w.Emit(&src.Samples[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for _, split := range []int{1, 3, 16, 17, 200} {
			var got bytes.Buffer
			bw, err := newW(&got, src.Meta(), 16)
			if err != nil {
				t.Fatal(err)
			}
			emitBatches(t, bw, src, split)
			if !bytes.Equal(got.Bytes(), ref.Bytes()) {
				t.Errorf("compress=%t split %d: batched file differs from per-sample file", compress, split)
			}
		}
	}
}

// TestTeeBatchStopsAtFirstError mirrors the per-sample Tee error
// contract on the batch path.
func TestTeeBatchStopsAtFirstError(t *testing.T) {
	h := NewHash()
	tee := NewTee(&failSink{}, h)
	if err := tee.EmitBatch(make([]Sample, 3)); err == nil {
		t.Fatal("error swallowed")
	}
	if h.Count() != 0 {
		t.Error("sink after the failing one still received the batch")
	}
}
