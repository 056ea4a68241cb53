package postproc

import (
	"bytes"
	"testing"

	"nmo/internal/trace"
)

// bigTrace spans many v2 blocks with increasing timestamps.
func bigTrace() *trace.Trace {
	tr := &trace.Trace{
		Workload: "big",
		Regions:  []string{"a", "b"},
		Kernels:  []string{"k"},
	}
	for i := 0; i < 640; i++ {
		tr.Samples = append(tr.Samples, trace.Sample{
			TimeNs: uint64(i) * 10,
			VA:     uint64(0x1000 + i*8),
			Lat:    uint16(i % 100),
			Core:   int16(i % 4),
			Region: int16(i%3) - 1,
			Kernel: int16(i%2) - 1,
			Store:  i%2 == 0,
			Level:  uint8(i % 4),
		})
	}
	return tr
}

func v2Reader(t *testing.T, tr *trace.Trace, blockSamples int) *trace.ReaderV2 {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterV2(&buf, tr.Meta(), blockSamples)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Samples {
		if err := w.Emit(&tr.Samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.OpenV2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// TestQueryOverV2MatchesInMemory runs the same queries against the
// in-memory trace and its v2 serialization: results must agree on
// every combinator.
func TestQueryOverV2MatchesInMemory(t *testing.T) {
	tr := bigTrace()
	rd := v2Reader(t, tr, 32)

	mem, ooc := Query(tr), From(rd)
	if a, b := mem.Count(), ooc.Count(); a != b {
		t.Errorf("count: %d vs %d", a, b)
	}
	if a, b := mem.Filter(StoresOnly()).Count(), ooc.Filter(StoresOnly()).Count(); a != b {
		t.Errorf("stores: %d vs %d", a, b)
	}
	if a, b := mem.MeanLatency(), ooc.MeanLatency(); a != b {
		t.Errorf("mean latency: %v vs %v", a, b)
	}
	ag := mem.GroupCount(ByRegion(tr))
	bg := ooc.GroupCount(ByRegionNames(rd.Meta().Regions))
	if len(ag) != len(bg) {
		t.Fatalf("groups: %v vs %v", ag, bg)
	}
	for i := range ag {
		if ag[i] != bg[i] {
			t.Errorf("group %d: %v vs %v", i, ag[i], bg[i])
		}
	}
}

// TestTimeBetweenPushdownSkipsBlocks: the structured time filter must
// give exact results while the v2 source skips non-overlapping blocks.
func TestTimeBetweenPushdownSkipsBlocks(t *testing.T) {
	tr := bigTrace() // times 0..6390, blocks of 32 cover 320ns each
	rd := v2Reader(t, tr, 32)

	want := Query(tr).Filter(TimeRange(1000, 1500)).Count()
	got := From(rd).TimeBetween(1000, 1500).Count()
	if got != want {
		t.Errorf("pushed-down count = %d, want %d", got, want)
	}
	read, skipped := rd.ScanStats()
	if skipped == 0 {
		t.Errorf("no blocks skipped (read %d)", read)
	}
	if read+skipped != uint64(rd.NumBlocks()) {
		t.Errorf("read %d + skipped %d != %d blocks", read, skipped, rd.NumBlocks())
	}

	// Unbounded-above variant.
	if got := From(rd).TimeBetween(6000, 0).Count(); got != Query(tr).Filter(TimeRangeOpen(6000, 0)).Count() {
		t.Error("open-ended TimeBetween disagrees")
	}
}

// TestOnCoresPushdown: exact filtering plus a usable skip mask.
func TestOnCoresPushdown(t *testing.T) {
	tr := bigTrace()
	rd := v2Reader(t, tr, 32)
	want := Query(tr).Filter(OnCore(2)).Count()
	if got := From(rd).OnCores(2).Count(); got != want {
		t.Errorf("OnCores(2) = %d, want %d", got, want)
	}
	// Every block holds all four cores here, so nothing skips — but a
	// single-core trace must skip for a disjoint core query.
	solo := &trace.Trace{Workload: "solo"}
	for i := 0; i < 64; i++ {
		solo.Samples = append(solo.Samples, trace.Sample{TimeNs: uint64(i), Core: 1})
	}
	srd := v2Reader(t, solo, 16)
	if got := From(srd).OnCores(2).Count(); got != 0 {
		t.Errorf("disjoint core query returned %d", got)
	}
	if read, skipped := srd.ScanStats(); read != 0 || skipped != 4 {
		t.Errorf("read/skipped = %d/%d, want 0/4", read, skipped)
	}
}

// TestRunMultiAggregationSinglePass: one scan must feed several
// aggregations with the same results the one-shot methods produce.
func TestRunMultiAggregationSinglePass(t *testing.T) {
	tr := bigTrace()
	rd := v2Reader(t, tr, 32)

	var count CountAgg
	var levels LevelAgg
	byRegion := NewGroupCount(ByRegionNames(rd.Meta().Regions))
	mean := NewMeanLatency()
	hash := NewHash()
	if err := From(rd).Run(&count, &levels, byRegion, mean, hash); err != nil {
		t.Fatal(err)
	}
	if int(count.N) != len(tr.Samples) {
		t.Errorf("count = %d", count.N)
	}
	if got, want := mean.Mean(), Query(tr).MeanLatency(); got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if hash.Sum16() != tr.MD5() {
		t.Error("single-pass hash differs from Trace.MD5")
	}
	if hash.Sum16() != rd.MD5() {
		t.Error("single-pass hash differs from the footer checksum")
	}
	wantGroups := Query(tr).GroupCount(ByRegion(tr))
	gotGroups := byRegion.Groups()
	for i := range wantGroups {
		if gotGroups[i] != wantGroups[i] {
			t.Errorf("group %d: %v vs %v", i, gotGroups[i], wantGroups[i])
		}
	}
	// The multi-agg pass cost exactly one scan.
	if read, skipped := rd.ScanStats(); read != uint64(rd.NumBlocks()) || skipped != 0 {
		t.Errorf("read/skipped = %d/%d after one full pass of %d blocks",
			read, skipped, rd.NumBlocks())
	}
}

// TestLatHistPercentiles pins the histogram percentiles against the
// sort-based analysis path.
func TestLatHistPercentiles(t *testing.T) {
	h := NewLatHist()
	for _, lat := range []uint16{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		h.Add(&trace.Sample{Lat: lat})
	}
	if p := h.Percentile(50); p != 50 {
		t.Errorf("p50 = %v", p)
	}
	if p := h.Percentile(90); p != 90 {
		t.Errorf("p90 = %v", p)
	}
	if p := h.Percentile(100); p != 100 {
		t.Errorf("p100 = %v", p)
	}
	empty := NewLatHist()
	if empty.Percentile(50) != 0 {
		t.Error("empty percentile not 0")
	}
}

// TestSummarizeInMemoryTrace: the digest nmoprof renders for an
// in-memory trace clamps data-source levels above DRAM into the DRAM
// bucket and reports nearest-rank percentiles.
func TestSummarizeInMemoryTrace(t *testing.T) {
	tr := &trace.Trace{}
	for _, lv := range []uint8{0, 0, 1, 3, 9} {
		tr.Samples = append(tr.Samples, trace.Sample{Level: lv})
	}
	sum, err := Summarize(From(tr), false)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Levels.By != [4]uint64{2, 1, 0, 2} {
		t.Errorf("levels = %v, want [2 1 0 2]", sum.Levels.By)
	}

	tr = &trace.Trace{}
	for i := 1; i <= 100; i++ {
		tr.Samples = append(tr.Samples, trace.Sample{Lat: uint16(i)})
	}
	if sum, err = Summarize(From(tr), false); err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{50, 90, 99} {
		if got := sum.Lat.Percentile(p); got != p {
			t.Errorf("p%v = %v", p, got)
		}
	}
}

// TestSummarizeEmptyTrace: an empty trace (a run with profiling
// disabled) renders zero counts and zero percentiles.
func TestSummarizeEmptyTrace(t *testing.T) {
	sum, err := Summarize(From(&trace.Trace{}), false)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != 0 || sum.Levels.By != [4]uint64{} || len(sum.ByRegion.Groups()) != 0 {
		t.Errorf("empty summary = count %d, levels %v, regions %v",
			sum.Count, sum.Levels.By, sum.ByRegion.Groups())
	}
	if a, b, c := sum.Lat.Percentile(50), sum.Lat.Percentile(90), sum.Lat.Percentile(99); a+b+c != 0 {
		t.Error("empty percentiles not 0")
	}
}
