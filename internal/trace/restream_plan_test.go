package trace_test

import (
	"bytes"
	"testing"

	"nmo/internal/trace"
	"nmo/internal/trace/tracetest"
)

// checkAgainstOracle asserts the plan of one predicate over src equals
// the naive oracle byte for byte, opens as a v2 file, and carries the
// rolling MD5 the plan announced. It returns the plan.
func checkAgainstOracle(t testing.TB, src []byte, lo, hi uint64, core int) *trace.RestreamPlan {
	t.Helper()
	plan, got := planOver(t, src, lo, hi, core)
	rd, err := trace.OpenV2(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want, err := tracetest.Restream(rd, lo, hi, core)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("[%d,%d) core %d: plan differs from the oracle (%d vs %d bytes)",
			lo, hi, core, len(got), len(want))
	}
	chk, err := trace.OpenV2(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("[%d,%d) core %d: assembled stream unreadable: %v", lo, hi, core, err)
	}
	sum, err := chk.VerifyMD5()
	if err != nil || sum != plan.MD5 {
		t.Fatalf("[%d,%d) core %d: rolling MD5 %x (%v), plan says %x", lo, hi, core, sum, err, plan.MD5)
	}
	return plan
}

// TestRestreamPlanExact pins the span plan to the naive oracle and
// checks how much of each output moves as verbatim extents: whole
// blocks coalesce into extents, straddlers and core filters never do.
func TestRestreamPlanExact(t *testing.T) {
	cases := []struct {
		name    string
		lo, hi  uint64
		core    int
		extents int
	}{
		{"unfiltered", 0, 0, -1, 1},               // blocks 0-2 coalesce
		{"aligned-window", 40_001, 80_001, -1, 1}, // block 1 exactly
		{"unaligned-window", 30_000, 60_000, -1, 0},
		{"tail-open", 50_000, 0, -1, 1}, // block 2 whole
		{"core-filter", 0, 0, 1, 0},
		{"aliased-core", 0, 0, 65, 0}, // CoreBit(65) == CoreBit(1)
		{"empty-result", 900_000, 900_001, -1, 0},
	}
	for _, compress := range []bool{false, true} {
		src, _ := restreamFixture(t, compress)
		for _, tc := range cases {
			plan := checkAgainstOracle(t, src, tc.lo, tc.hi, tc.core)
			extents := 0
			for _, seg := range plan.Segments {
				if seg.Data == nil {
					extents++
				}
			}
			if extents != tc.extents {
				t.Errorf("compress=%t %s: %d extents, want %d", compress, tc.name, extents, tc.extents)
			}
		}
	}
}

// FuzzRestreamPlanExact: for any window and core over v2 and v2.1
// fixtures, the assembled plan equals the oracle byte for byte, opens
// with OpenV2, and its rolling MD5 equals plan.MD5.
func FuzzRestreamPlanExact(f *testing.F) {
	srcs := map[bool][]byte{}
	for _, compress := range []bool{false, true} {
		srcs[compress], _ = restreamFixture(f, compress)
	}
	f.Add(uint64(0), uint64(0), int16(-1), false)
	f.Add(uint64(40_001), uint64(80_001), int16(-1), true)
	f.Add(uint64(30_000), uint64(60_000), int16(1), false)
	f.Add(uint64(50_000), uint64(0), int16(65), true)
	f.Add(uint64(80_000), uint64(40_000), int16(-1), false)
	f.Fuzz(func(t *testing.T, lo, hi uint64, core int16, compress bool) {
		c := int(core)
		if c < 0 {
			c = -1
		}
		checkAgainstOracle(t, srcs[compress], lo, hi, c)
	})
}

// liftedBlocks counts the source blocks whose stored bytes a plan
// moves verbatim: those that begin inside one of its extents.
func liftedBlocks(t testing.TB, src []byte, plan *trace.RestreamPlan) int {
	t.Helper()
	rd, err := trace.OpenV2(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < rd.NumBlocks(); i++ {
		off := int64(rd.Block(i).Offset)
		for _, seg := range plan.Segments {
			if seg.Data == nil && off >= seg.SrcOff && off < seg.SrcOff+seg.Len {
				n++
				break
			}
		}
	}
	return n
}

// TestRestreamExact checks exact restreaming at the sample level, the
// way a reader sees it: an unfiltered plan lifts every block and keeps
// the source's MD5 and format, a block-aligned window lifts exactly
// the block it covers, and a core filter lifts nothing yet yields
// exactly the matching samples in order.
func TestRestreamExact(t *testing.T) {
	for _, compress := range []bool{false, true} {
		src, samples := restreamFixture(t, compress)
		rd, err := trace.OpenV2(bytes.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}

		plan, out := planOver(t, src, 0, 0, -1)
		if n, lifted := len(readAll(t, out)), liftedBlocks(t, src, plan); n != 100 || lifted != rd.NumBlocks() {
			t.Errorf("compress=%t: n=%d lifted=%d of %d blocks", compress, n, lifted, rd.NumBlocks())
		}
		rd2, err := trace.OpenV2(bytes.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		if rd2.MD5() != rd.MD5() {
			t.Errorf("compress=%t: unfiltered restream changed the MD5", compress)
		}
		if rd2.Compressed() != compress {
			t.Errorf("compress=%t: unfiltered restream changed the format", compress)
		}

		// Block-aligned time window [40_001, 80_001): block 1 (samples
		// 40..79) is wholly inside, blocks 0 and 2 are ruled out by the
		// index — exactly one lifted block.
		plan, out = planOver(t, src, 40_001, 80_001, -1)
		if n, lifted := len(readAll(t, out)), liftedBlocks(t, src, plan); n != 40 || lifted != 1 {
			t.Errorf("compress=%t aligned: n=%d lifted=%d, want 40/1", compress, n, lifted)
		}

		// Unaligned window + core filter: nothing can be lifted; the
		// output must hold exactly the matching samples, in order.
		lo, hi, core := uint64(30_000), uint64(60_000), 1
		plan, out = planOver(t, src, lo, hi, core)
		if lifted := liftedBlocks(t, src, plan); lifted != 0 {
			t.Errorf("compress=%t filtered: lifted %d blocks on a core filter", compress, lifted)
		}
		var want []trace.Sample
		for _, s := range samples {
			if s.TimeNs >= lo && s.TimeNs < hi && int(s.Core) == core {
				want = append(want, s)
			}
		}
		got := readAll(t, out)
		if len(got) != len(want) {
			t.Fatalf("compress=%t filtered: n=%d, want %d", compress, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("compress=%t filtered: sample %d = %+v, want %+v", compress, i, got[i], want[i])
			}
		}
	}
}
