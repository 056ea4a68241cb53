package service

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// benchSpec is deliberately tiny: the benchmark measures the service
// machinery (HTTP, scheduling, cache, digest), not the simulator.
func benchSpec(seed uint64) JobSpec {
	return JobSpec{Scenarios: []ScenarioSpec{{
		Workload: "stream",
		Threads:  2,
		Elems:    20_000,
		Iters:    1,
		Cores:    4,
		Seed:     seed,
		Period:   700,
	}}}
}

// BenchmarkServiceThroughput measures end-to-end jobs/sec through the
// full HTTP stack, contrasting the cache-miss path (every submission
// simulates) with the cache-hit path (every submission is answered
// from the content-addressed store) — the service-level trajectory
// recorded in BENCH_*.json by CI. engine-runs is the number of
// simulations behind the timed loop (the hit leg's one is its warm-up
// fill).
func BenchmarkServiceThroughput(b *testing.B) {
	run := func(b *testing.B, spec func(i int) JobSpec, warm bool) *Scheduler {
		sched := NewScheduler(SchedConfig{Workers: 2, QueueCap: 1 << 16}, nil)
		b.Cleanup(sched.Close)
		srv := httptest.NewServer(NewServer(sched))
		b.Cleanup(srv.Close)
		client := NewClient(srv.URL)
		ctx := context.Background()
		submit := func(i int) {
			info, err := client.Submit(ctx, spec(i))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := client.Wait(ctx, info.ID, time.Millisecond); err != nil {
				b.Fatal(err)
			}
		}

		if warm {
			submit(0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(i)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
		b.ReportMetric(float64(sched.EngineRuns()), "engine-runs")
		return sched
	}

	b.Run("miss", func(b *testing.B) {
		// Every submission is a distinct content address: full
		// simulate + digest + cache-fill cost per job.
		run(b, func(i int) JobSpec { return benchSpec(uint64(1000 + i)) }, false)
	})
	b.Run("hit", func(b *testing.B) {
		// One address, filled once before the timer starts: every
		// timed submission is pure service overhead, even at 1x.
		sched := run(b, func(int) JobSpec { return benchSpec(1) }, true)
		if n := sched.EngineRuns(); n != 1 {
			b.Fatalf("hit leg ran the engine %d times, want 1 (the warm-up fill)", n)
		}
	})
}

// BenchmarkServiceTraceStream measures streaming a cached trace blob
// over HTTP (the hot read path of a dashboard polling one run), raw v2
// against compressed v2.1. Both variants report MB/s of *sample
// payload* delivered — the raw blob size — so the compressed number
// directly shows what shipping fewer wire bytes buys.
func BenchmarkServiceTraceStream(b *testing.B) {
	sched := NewScheduler(SchedConfig{Workers: 1}, nil)
	defer sched.Close()
	srv := httptest.NewServer(NewServer(sched))
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()

	submit := func(compress bool) (string, int64) {
		// Unlike benchSpec, the trace bench wants a transfer-dominated
		// blob (hundreds of KiB), not a service-overhead-dominated one.
		spec := benchSpec(1)
		spec.Scenarios[0].Elems = 200_000
		spec.Scenarios[0].Iters = 4
		spec.Scenarios[0].Period = 64
		spec.Scenarios[0].Compress = compress
		info, err := client.Submit(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.Wait(ctx, info.ID, time.Millisecond); err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		n, _, err := client.DownloadTrace(ctx, info.ID, NewTraceOptions(), &buf)
		if err != nil {
			b.Fatal(err)
		}
		return info.ID, n
	}
	rawID, rawBytes := submit(false)
	compID, compBytes := submit(true)

	for _, bc := range []struct {
		name string
		id   string
		wire int64
	}{
		{"raw", rawID, rawBytes},
		{"compressed", compID, compBytes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.SetBytes(rawBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				n, _, err := client.DownloadTrace(ctx, bc.id, NewTraceOptions(), &buf)
				if err != nil {
					b.Fatal(err)
				}
				if n != bc.wire {
					b.Fatalf("downloaded %d bytes, want %d", n, bc.wire)
				}
			}
			b.ReportMetric(float64(bc.wire)/float64(rawBytes), "wire-ratio")
		})
	}
}

// BenchmarkTraceServeFile contrasts the two storage tiers on the
// unfiltered /trace path: "memory" serves from the resident blob,
// "file" serves a demoted blob straight from its spill file (the
// sendfile-eligible path, which never stages the payload on the Go
// heap). The file tier's win shows up in allocs/op and B/op.
func BenchmarkTraceServeFile(b *testing.B) {
	run := func(b *testing.B, cache *Cache, wantFile bool) {
		sched := NewScheduler(SchedConfig{Workers: 1}, cache)
		defer sched.Close()
		srv := httptest.NewServer(NewServer(sched))
		defer srv.Close()
		client := NewClient(srv.URL)
		ctx := context.Background()

		spec := benchSpec(1)
		spec.Scenarios[0].Elems = 200_000
		spec.Scenarios[0].Iters = 4
		spec.Scenarios[0].Period = 64
		info, err := client.Submit(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.Wait(ctx, info.ID, time.Millisecond); err != nil {
			b.Fatal(err)
		}
		job, _ := sched.Get(info.ID)
		blob := job.Artifacts().Traces[0]
		if blob.FileBacked() != wantFile {
			b.Fatalf("blob file-backed = %v, want %v", blob.FileBacked(), wantFile)
		}

		var buf bytes.Buffer
		b.SetBytes(blob.Size())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			n, _, err := client.DownloadTrace(ctx, info.ID, NewTraceOptions(), &buf)
			if err != nil {
				b.Fatal(err)
			}
			if n != blob.Size() {
				b.Fatalf("downloaded %d bytes, want %d", n, blob.Size())
			}
		}
	}

	b.Run("memory", func(b *testing.B) {
		run(b, nil, false)
	})
	b.Run("file", func(b *testing.B) {
		// A one-byte memory budget demotes the blob to its spill file
		// the moment it is filled.
		cache, err := NewCache(CacheConfig{Dir: b.TempDir(), MemBudget: 1})
		if err != nil {
			b.Fatal(err)
		}
		run(b, cache, true)
	})
}

// BenchmarkTraceServeSendfile serves a demoted blob over real TCP
// through the production wiring: a plain listener, where the body
// leaves via net/http's sendfile(2) and never crosses user space on
// the server. The raw keep-alive client reads each body into
// io.Discard, so ns/op includes the receive side's user-space copy
// (see DESIGN.md §14). It also reports user-copy-B/op: the payload
// bytes the server wrote from user space, which must stay 0. CI's
// benchstat step watches it for regressions.
func BenchmarkTraceServeSendfile(b *testing.B) {
	cache, err := NewCache(CacheConfig{Dir: b.TempDir(), MemBudget: 1})
	if err != nil {
		b.Fatal(err)
	}
	sched := NewScheduler(SchedConfig{Workers: 1}, cache)
	defer sched.Close()
	h := NewServer(sched)

	spec := benchSpec(1)
	spec.Scenarios[0].Elems = 200_000
	spec.Scenarios[0].Iters = 4
	spec.Scenarios[0].Period = 64
	job, err := sched.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	waitDone(b, job)
	blob := job.Artifacts().Traces[0]
	if !blob.FileBacked() {
		b.Fatal("blob not demoted to the spill file")
	}

	b.Run("sendfile", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(ln)
		defer srv.Close()

		// The client: one persistent conn, a precomputed request, the
		// response parsed by http.ReadResponse and its body discarded.
		addr := ln.Addr().String()
		tc, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		defer tc.Close()
		br := bufio.NewReader(tc)
		req := []byte("GET /v1/jobs/" + job.ID + "/trace HTTP/1.1\r\nHost: " + addr + "\r\n\r\n")
		get := func() (int64, error) {
			if _, err := tc.Write(req); err != nil {
				return 0, err
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				return 0, err
			}
			if resp.StatusCode != http.StatusOK || resp.ContentLength <= 0 {
				return 0, fmt.Errorf("status %s, content-length %d", resp.Status, resp.ContentLength)
			}
			return io.CopyN(io.Discard, br, resp.ContentLength)
		}

		fb0 := h.ZeroCopy().FallbackBytes()
		b.SetBytes(blob.Size())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := get()
			if err != nil {
				b.Fatal(err)
			}
			if n != blob.Size() {
				b.Fatalf("downloaded %d bytes, want %d", n, blob.Size())
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(h.ZeroCopy().FallbackBytes()-fb0)/float64(b.N), "user-copy-B/op")
	})
}

// BenchmarkCacheWarmBoot measures the restart path: scanning a spill
// directory, verifying every entry's rolling MD5 block by block, and
// repopulating the index. The fixture fans one real trace blob out
// under distinct content addresses, so the cost scales with entries
// and verified payload bytes like a production spill dir.
func BenchmarkCacheWarmBoot(b *testing.B) {
	// One genuine engine run supplies valid v2 bytes + checksum.
	seedSched := NewScheduler(SchedConfig{Workers: 1}, nil)
	spec := benchSpec(1)
	spec.Scenarios[0].Elems = 100_000
	spec.Scenarios[0].Period = 128
	job, err := seedSched.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	waitDone(b, job)
	art := job.Artifacts()
	data := blobBytesB(b, art.Traces[0])
	sum := art.Traces[0].MD5
	doc := art.Doc
	seedSched.Close()

	const entries = 32
	dir := b.TempDir()
	seed, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		key := fmt.Sprintf("%064x", i+1)
		e, leader := seed.Acquire(key)
		if !leader {
			b.Fatal("duplicate key in warm-boot fixture")
		}
		seed.Fill(e, &JobArtifacts{Doc: doc, Traces: []*TraceBlob{
			NewTraceBlob("s0", data, sum),
		}})
	}
	if st := seed.Stats(); st.Entries != entries || st.BytesDisk == 0 {
		b.Fatalf("fixture incomplete: %+v", st)
	}

	b.SetBytes(int64(entries) * int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewCache(CacheConfig{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if st := c.Stats(); st.Entries != entries {
			b.Fatalf("recovered %d entries, want %d", st.Entries, entries)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(entries)*float64(b.N)/b.Elapsed().Seconds(), "entries/sec")
}

// blobBytesB is the benchmark twin of blobBytes.
func blobBytesB(b *testing.B, blob *TraceBlob) []byte {
	b.Helper()
	data, err := blob.Bytes()
	if err != nil {
		b.Fatal(err)
	}
	return data
}
