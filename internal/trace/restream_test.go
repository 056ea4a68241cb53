package trace_test

import (
	"bytes"
	"testing"

	"nmo/internal/trace"
)

// restreamFixture writes a deterministic 3-block v2 (or v2.1) trace:
// 100 samples, block size 40 (the last block holds 20), timestamps
// 1000·(i+1), cores i%4. It returns the raw stream — the plan's extent
// offsets index into it — and the samples in stream order.
func restreamFixture(t testing.TB, compress bool) ([]byte, []trace.Sample) {
	t.Helper()
	meta := trace.Meta{Workload: "wl", Regions: []string{"a", "b"}, Kernels: []string{"k"}}
	newW := trace.NewWriterV2
	if compress {
		newW = trace.NewWriterV21
	}
	var buf bytes.Buffer
	w, err := newW(&buf, meta, 40)
	if err != nil {
		t.Fatal(err)
	}
	var samples []trace.Sample
	for i := 0; i < 100; i++ {
		s := trace.Sample{
			TimeNs: uint64(1000 * (i + 1)),
			Core:   int16(i % 4),
			VA:     uint64(0x1000 + i),
			Lat:    uint16(10 + i%7),
			Region: int16(i % 2),
		}
		samples = append(samples, s)
		if err := w.Emit(&s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), samples
}

// planOver plans the predicate over src and returns the plan with its
// assembled bytes.
func planOver(t testing.TB, src []byte, lo, hi uint64, core int) (*trace.RestreamPlan, []byte) {
	t.Helper()
	rd, err := trace.OpenV2(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := trace.RestreamPlanExact(rd, lo, hi, core)
	if err != nil {
		t.Fatalf("plan [%d,%d) core %d: %v", lo, hi, core, err)
	}
	return plan, assemble(t, plan, src)
}

// assemble materializes a plan against the source bytes.
func assemble(t testing.TB, plan *trace.RestreamPlan, src []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, seg := range plan.Segments {
		if seg.Data != nil {
			out.Write(seg.Data)
			continue
		}
		if seg.SrcOff < 0 || seg.SrcOff+seg.Len > int64(len(src)) {
			t.Fatalf("extent [%d,+%d) outside source of %d bytes", seg.SrcOff, seg.Len, len(src))
		}
		out.Write(src[seg.SrcOff : seg.SrcOff+seg.Len])
	}
	if int64(out.Len()) != plan.Size {
		t.Fatalf("assembled %d bytes, plan.Size %d", out.Len(), plan.Size)
	}
	return out.Bytes()
}

func readAll(t testing.TB, stream []byte) []trace.Sample {
	t.Helper()
	rd, err := trace.OpenV2(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("restreamed output is not a valid v2 file: %v", err)
	}
	var got []trace.Sample
	if err := rd.Scan(trace.ScanHints{}, func(s *trace.Sample) { got = append(got, *s) }); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRestreamUnfiltered: with no predicate every block is provably
// whole, so the plan reproduces the source byte for byte — same index,
// same rolling MD5, same metadata.
func TestRestreamUnfiltered(t *testing.T) {
	for _, compress := range []bool{false, true} {
		src, samples := restreamFixture(t, compress)
		plan, got := planOver(t, src, 0, 0, -1)
		if !bytes.Equal(got, src) {
			t.Fatalf("compress=%t: unfiltered plan differs from the source", compress)
		}
		rd, err := trace.OpenV2(bytes.NewReader(got))
		if err != nil {
			t.Fatal(err)
		}
		if rd.MD5() != plan.MD5 || rd.TotalSamples() != uint64(len(samples)) {
			t.Errorf("compress=%t: md5/total mismatch", compress)
		}
		if rd.Meta().Workload != "wl" || len(rd.Meta().Regions) != 2 {
			t.Errorf("meta not preserved: %+v", rd.Meta())
		}
	}
}

func TestRestreamFiltered(t *testing.T) {
	src, samples := restreamFixture(t, false)
	// Time window [30_000, 60_000) on core 1: the index skips block 2,
	// the exact filter trims blocks 0 and 1.
	var want []trace.Sample
	for _, s := range samples {
		if s.TimeNs >= 30_000 && s.TimeNs < 60_000 && s.Core == 1 {
			want = append(want, s)
		}
	}
	_, out := planOver(t, src, 30_000, 60_000, 1)
	got := readAll(t, out)
	if len(got) != len(want) {
		t.Fatalf("read back %d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRestreamEmptyResult(t *testing.T) {
	src, _ := restreamFixture(t, false)
	plan, out := planOver(t, src, 1<<40, 0, -1)
	if got := readAll(t, out); len(got) != 0 {
		t.Fatalf("restreamed %d samples, want 0", len(got))
	}
	for _, seg := range plan.Segments {
		if seg.Data == nil {
			t.Error("empty result lifted an extent")
		}
	}
}
