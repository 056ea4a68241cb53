package nmo_test

import (
	"bytes"
	"fmt"
	"testing"

	"nmo"
	"nmo/internal/trace"
)

// fullPipelineProfile runs a sampled STREAM profile through the whole
// stack: workload -> machine -> SPE unit -> packet encoder -> aux ring
// -> PERF_RECORD_AUX -> decoder -> attribution.
func fullPipelineProfile(t *testing.T, seed uint64) *nmo.Profile {
	t.Helper()
	mach := nmo.NewMachine(nmo.AmpereAltraMax().WithCores(16))
	cfg := nmo.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = nmo.ModeFull
	cfg.TrackRSS = true
	cfg.Period = 1024
	cfg.IntervalSec = 1e-4
	cfg.Seed = seed
	p, err := nmo.Run(cfg, mach, nmo.NewStream(nmo.StreamConfig{
		Elems: 400_000, Threads: 16, Iters: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSampleConservation checks the end-to-end accounting identity:
// every selected sample is exactly one of collided, filtered, emitted,
// or truncated; and every byte the monitor drained decodes to either a
// valid or a skipped record.
func TestSampleConservation(t *testing.T) {
	p := fullPipelineProfile(t, 7)
	s := p.Sampler

	if s.Selected == 0 {
		t.Fatal("no samples selected")
	}
	if got := s.Collisions + s.Filtered + s.Emitted + s.TruncatedHW; got != s.Selected {
		t.Errorf("selection accounting: coll %d + filt %d + emit %d + trunc %d = %d, want Selected %d",
			s.Collisions, s.Filtered, s.Emitted, s.TruncatedHW, got, s.Selected)
	}
	// Drained bytes are whole records: emitted plus corrupted ones.
	wantBytes := (s.Emitted + s.Corrupted) * 64
	if p.Kernel.DrainedBytes != wantBytes {
		t.Errorf("drained %d bytes, want %d (64 per accepted record)",
			p.Kernel.DrainedBytes, wantBytes)
	}
	// Every drained record is either processed or skipped.
	if got := s.Processed + s.SkippedInvalid; got != s.Emitted+s.Corrupted {
		t.Errorf("decode accounting: processed %d + skipped %d = %d, want %d",
			s.Processed, s.SkippedInvalid, got, s.Emitted+s.Corrupted)
	}
	// Corrupted records must all be skipped by the decoder.
	if s.SkippedInvalid != s.Corrupted {
		t.Errorf("skipped %d != corrupted %d", s.SkippedInvalid, s.Corrupted)
	}
}

// TestSampleAttribution checks that every stored sample lands in one
// of the workload's tagged regions (STREAM touches nothing else) and
// that stores only appear in the output array.
func TestSampleAttribution(t *testing.T) {
	p := fullPipelineProfile(t, 11)
	if len(p.Trace.Samples) == 0 {
		t.Fatal("no samples")
	}
	for i := range p.Trace.Samples {
		s := &p.Trace.Samples[i]
		if s.Region < 0 {
			t.Fatalf("sample %d unattributed: va=%#x", i, s.VA)
		}
		region := p.Trace.Regions[s.Region]
		if s.Store && region != "a" {
			t.Fatalf("store sample in region %q, want a", region)
		}
		if !s.Store && region == "a" {
			t.Fatalf("load sample in the store-only region a")
		}
	}
}

// TestSampleTimestampsOrdered checks that per-core sample timestamps
// are non-decreasing (SPE emits records in completion order per core).
func TestSampleTimestampsOrdered(t *testing.T) {
	p := fullPipelineProfile(t, 13)
	last := map[int16]uint64{}
	for i := range p.Trace.Samples {
		s := &p.Trace.Samples[i]
		if s.TimeNs < last[s.Core] {
			t.Fatalf("core %d timestamps went backwards: %d after %d",
				s.Core, s.TimeNs, last[s.Core])
		}
		last[s.Core] = s.TimeNs
	}
}

// TestEndToEndDeterminism pins byte-level reproducibility across the
// full stack, including the MD5 the tool reports.
func TestEndToEndDeterminism(t *testing.T) {
	a := fullPipelineProfile(t, 99)
	b := fullPipelineProfile(t, 99)
	if a.MD5 != b.MD5 {
		t.Error("MD5 differs across identical runs")
	}
	if a.Wall != b.Wall || a.Sampler != b.Sampler || a.Kernel != b.Kernel {
		t.Error("stats differ across identical runs")
	}
	c := fullPipelineProfile(t, 100)
	if a.MD5 == c.MD5 {
		t.Error("different seeds produced identical traces")
	}
}

// TestTraceSerializationRoundTrip pushes a real profile's trace
// through the binary format and back.
func TestTraceSerializationRoundTrip(t *testing.T) {
	p := fullPipelineProfile(t, 21)
	var buf bytes.Buffer
	if err := p.Trace.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.MD5() != p.Trace.MD5() {
		t.Error("MD5 changed through serialization")
	}
	if len(got.Samples) != len(p.Trace.Samples) {
		t.Errorf("sample count %d != %d", len(got.Samples), len(p.Trace.Samples))
	}
}

// TestBandwidthSeriesConsistency: the bandwidth series must integrate
// to roughly the bus traffic the counters saw.
func TestBandwidthSeriesConsistency(t *testing.T) {
	p := fullPipelineProfile(t, 31)
	if len(p.Bandwidth.Points) == 0 {
		t.Fatal("no bandwidth points")
	}
	var integrated float64 // GiB
	for _, pt := range p.Bandwidth.Points {
		integrated += pt.Value * 1e-4 // value GiB/s * interval s
	}
	busGiB := float64(p.BusAccesses) * 64 / float64(1<<30)
	// The last partial interval is not emitted, so allow slack.
	if integrated < busGiB*0.7 || integrated > busGiB*1.05 {
		t.Errorf("series integrates to %.4f GiB, counters saw %.4f GiB",
			integrated, busGiB)
	}
}

// TestAccuracyBandAcrossSeeds: Eq. (1) accuracy at a healthy period
// must be stable across seeds (the paper's five-trial methodology
// depends on it).
func TestAccuracyBandAcrossSeeds(t *testing.T) {
	mach := nmo.NewMachine(nmo.AmpereAltraMax().WithCores(16))
	w := nmo.NewStream(nmo.StreamConfig{Elems: 400_000, Threads: 16, Iters: 2})
	var accs []float64
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := nmo.DefaultConfig()
		cfg.Enable = true
		cfg.Mode = nmo.ModeSample
		cfg.Period = 8192
		cfg.Seed = seed
		p, err := nmo.Run(cfg, mach, w)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, nmo.Accuracy(p.MemAccesses, p.Sampler.Processed, cfg.Period))
	}
	for i, a := range accs {
		if a < 0.85 {
			t.Errorf("trial %d accuracy %.3f below band", i, a)
		}
	}
	spread := maxF(accs) - minF(accs)
	if spread > 0.1 {
		t.Errorf("accuracy spread %.3f too wide across seeds: %v", spread, accs)
	}
}

// TestGoldenTraceChecksum pins the exact MD5 of a fixed configuration.
// If an intentional change to the pipeline alters sampling behaviour,
// update the constant — the test exists so such changes are always
// deliberate.
func TestGoldenTraceChecksum(t *testing.T) {
	p := fullPipelineProfile(t, 42)
	got := fmt.Sprintf("%x", p.MD5)
	const want = "3f5c715c3318921059888ea913e33bf0"
	if want == "GOLDEN" {
		t.Logf("golden MD5 for seed 42: %s (pin me)", got)
		return
	}
	if got != want {
		t.Errorf("trace MD5 = %s, want %s", got, want)
	}
}

func maxF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// TestGoldenPEBSTraceChecksum pins the Ice Lake/PEBS path, which the
// SPE golden above does not reach: x86 sampling records, 4 KB pages
// and a 64-entry TLB.
func TestGoldenPEBSTraceChecksum(t *testing.T) {
	mach := nmo.NewMachine(nmo.IntelIceLakeSP().WithCores(8))
	cfg := nmo.DefaultConfig()
	cfg.Enable = true
	cfg.Mode = nmo.ModeFull
	cfg.Backend = nmo.BackendPEBS
	cfg.Period = 1024
	cfg.Seed = 42
	p, err := nmo.Run(cfg, mach, nmo.NewCFD(nmo.CFDConfig{Elems: 20_000, Threads: 8, Iters: 2, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x", p.MD5)
	const want = "d13918ff63712bf2d41ecd0af09aa88a"
	if got != want {
		t.Errorf("PEBS trace MD5 = %s, want %s", got, want)
	}
}
