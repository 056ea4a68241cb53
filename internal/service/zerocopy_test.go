package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"nmo/internal/trace"
	"nmo/internal/trace/tracetest"
	"nmo/internal/zerocopy"
)

// zcServer is a real-TCP server wired exactly like cmd/nmod: wrapped
// listener + ConnContext, so accepted conns carry the zero-copy state
// and file-tier plan extents move by sendfile. httptest can't stand in
// here — its conns are never wrapped, so it only ever exercises the
// fallback copy.
type zcServer struct {
	h       *Server
	client  *Client
	accepts *int64
}

// countingListener counts Accept calls so the keep-alive test can
// prove conn reuse across sendfile serves.
type countingListener struct {
	net.Listener
	n *int64
}

func (cl countingListener) Accept() (net.Conn, error) {
	c, err := cl.Listener.Accept()
	if err == nil {
		atomic.AddInt64(cl.n, 1)
	}
	return c, err
}

// runJob submits spec straight to the scheduler and returns its first
// trace blob once the job is terminal.
func runJob(t *testing.T, sched *Scheduler, spec JobSpec) *TraceBlob {
	t.Helper()
	j, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	return j.Artifacts().Traces[0]
}

func newZCServer(t *testing.T, sched *Scheduler) *zcServer {
	t.Helper()
	h := NewServer(sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts := new(int64)
	srv := &http.Server{Handler: h, ConnContext: zerocopy.ConnContext}
	go srv.Serve(zerocopy.WrapListener(countingListener{ln, accepts}, h.ZeroCopy()))
	t.Cleanup(func() { srv.Close() })
	return &zcServer{
		h:       h,
		client:  NewClient("http://" + ln.Addr().String()),
		accepts: accepts,
	}
}

// getTrace fetches a trace over plain HTTP so the test sees the
// response framing: body, X-Nmo-Trace-Md5, and Content-Length (-1 when
// the response was not sized).
func getTrace(t *testing.T, base, id string, lo, hi uint64, core int) ([]byte, string, int64) {
	t.Helper()
	q := url.Values{}
	if lo != 0 {
		q.Set("from", strconv.FormatUint(lo, 10))
	}
	if hi != 0 {
		q.Set("to", strconv.FormatUint(hi, 10))
	}
	if core >= 0 {
		q.Set("core", strconv.Itoa(core))
	}
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("trace [%d,%d) core %d: %d %v: %s", lo, hi, core, resp.StatusCode, err, body)
	}
	return body, resp.Header.Get("X-Nmo-Trace-Md5"), resp.ContentLength
}

// extentBytes sums the bytes a request's plan lifts from the stored
// blob as extents: all of it unfiltered, the provably whole blocks
// under a filter.
func extentBytes(t *testing.T, rd *trace.ReaderV2, size int, lo, hi uint64, core int) int64 {
	t.Helper()
	if lo == 0 && hi == 0 && core < 0 {
		return int64(size)
	}
	plan, err := trace.RestreamPlanExact(rd, lo, hi, core)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, seg := range plan.Segments {
		if seg.Data == nil {
			n += seg.Len
		}
	}
	return n
}

// TestTraceServeMatrix crosses every dimension of the trace serve
// path: storage tier (memory vs spill file) × format (v2 vs v2.1) ×
// filter (none, time range, full span, core) × data plane (wrapped
// real-TCP conn vs unwrapped httptest conn). Every cell is one span
// plan, so every response must be sized, carry an X-Nmo-Trace-Md5
// equal to its body's rolling MD5, and hold exactly the naive
// oracle's bytes — kernel offload and storage tier may never change
// the wire.
func TestTraceServeMatrix(t *testing.T) {
	ctx := context.Background()
	for _, tier := range []string{"memory", "file"} {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compress=%t", tier, compress), func(t *testing.T) {
				var cache *Cache
				if tier == "file" {
					// A one-byte memory budget demotes the blob to its
					// spill file the moment it is filled.
					var err error
					cache, err = NewCache(CacheConfig{Dir: t.TempDir(), MemBudget: 1})
					if err != nil {
						t.Fatal(err)
					}
				}
				sched := NewScheduler(SchedConfig{Workers: 1}, cache)
				t.Cleanup(sched.Close)

				// Small blocks give every window whole blocks (extents)
				// between its straddlers (literals).
				spec := quickJob(91)
				spec.Scenarios[0].Compress = compress
				spec.Scenarios[0].BlockSamples = 32
				blob := runJob(t, sched, spec)
				if (tier == "file") != blob.FileBacked() {
					t.Fatalf("blob file-backed = %v in %s tier", blob.FileBacked(), tier)
				}

				// Both servers front the same scheduler, so both serve
				// the exact same stored blob.
				zc := newZCServer(t, sched)
				fb := httptest.NewServer(NewServer(sched))
				t.Cleanup(fb.Close)

				// Resubmit via HTTP to learn the job ID each client sees
				// (same content address → cache hit, no second run).
				info, err := zc.client.Submit(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				id := info.ID

				stored := blobBytes(t, blob)
				rd, err := trace.OpenV2(bytes.NewReader(stored))
				if err != nil {
					t.Fatal(err)
				}
				if rd.NumBlocks() < 8 {
					t.Fatalf("fixture has %d blocks, want at least 8", rd.NumBlocks())
				}
				lo, hi := rd.Block(0).TimeMin, rd.Block(0).TimeMax
				for i := 1; i < rd.NumBlocks(); i++ {
					lo, hi = min(lo, rd.Block(i).TimeMin), max(hi, rd.Block(i).TimeMax)
				}
				// Block 1's time range holds block 1 whole (an extent)
				// and cuts the other per-core blocks (literal
				// straddlers); the full span makes every block provably
				// whole; a core filter keeps only literals.
				b1 := rd.Block(1)
				var wantSF int64
				for _, fc := range []struct {
					name   string
					lo, hi uint64
					core   int
				}{
					{"unfiltered", 0, 0, -1},
					{"timerange", b1.TimeMin, b1.TimeMax + 1, -1},
					{"fullspan", lo, hi + 1, -1},
					{"core", 0, 0, 1},
				} {
					want, err := tracetest.Restream(rd, fc.lo, fc.hi, fc.core)
					if err != nil {
						t.Fatal(err)
					}
					if fc.name == "unfiltered" && !bytes.Equal(want, stored) {
						t.Fatal("unfiltered oracle differs from the stored blob")
					}
					for _, plane := range []struct {
						name, base string
					}{
						{"wrapped", zc.client.Base},
						{"httptest", fb.URL},
					} {
						body, md5hex, size := getTrace(t, plane.base, id, fc.lo, fc.hi, fc.core)
						cell := fc.name + "/" + plane.name
						if !bytes.Equal(body, want) {
							t.Errorf("%s: body differs from the oracle (%d vs %d bytes)", cell, len(body), len(want))
						}
						if size != int64(len(body)) {
							t.Errorf("%s: Content-Length %d, body %d bytes", cell, size, len(body))
						}
						got, err := trace.OpenV2(bytes.NewReader(body))
						if err != nil {
							t.Fatalf("%s: served stream is not a valid v2 file: %v", cell, err)
						}
						sum, err := got.VerifyMD5()
						if err != nil || md5hex != hex.EncodeToString(sum[:]) {
							t.Errorf("%s: X-Nmo-Trace-Md5 %q, body rolling MD5 %x (%v)", cell, md5hex, sum, err)
						}

						// The kernel-offload path must actually engage on
						// Linux: every extent of a file-tier plan on the
						// wrapped conn moves by sendfile — the whole blob
						// unfiltered, every block on the full span, block 1
						// in the time range. (Core filters alias through
						// CoreMask, so they never have extents.) The conn
						// credits the bytes after the last one is sent, so
						// wait for the count to land.
						if runtime.GOOS == "linux" && tier == "file" && plane.name == "wrapped" {
							n := extentBytes(t, rd, len(stored), fc.lo, fc.hi, fc.core)
							if (n > 0) != (fc.name != "core") {
								t.Fatalf("%s: plan has %d extent bytes", cell, n)
							}
							wantSF += n
						}
						deadline := time.Now().Add(5 * time.Second)
						for zc.h.ZeroCopy().SendfileBytes() != wantSF && time.Now().Before(deadline) {
							time.Sleep(time.Millisecond)
						}
						if got := zc.h.ZeroCopy().SendfileBytes(); got != wantSF {
							t.Errorf("%s: sendfile bytes %d, want %d", cell, got, wantSF)
						}
					}
				}
			})
		}
	}
}

// TestTraceServeKeepAlive proves the sendfile path preserves HTTP/1.1
// framing: ten sequential downloads (unfiltered + filtered, so both
// the whole-blob and filtered plans run) over one client must reuse one
// TCP conn — if sendfile bytes escaped net/http's response accounting,
// the Content-Length bookkeeping would break and the conn would die
// after the first response.
func TestTraceServeKeepAlive(t *testing.T) {
	cache, err := NewCache(CacheConfig{Dir: t.TempDir(), MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedConfig{Workers: 1}, cache)
	t.Cleanup(sched.Close)
	blob := runJob(t, sched, quickJob(92))
	if !blob.FileBacked() {
		t.Fatal("fixture blob is not file-backed")
	}
	want := blobBytes(t, blob)

	zc := newZCServer(t, sched)
	ctx := context.Background()
	info, err := zc.client.Submit(ctx, quickJob(92))
	if err != nil {
		t.Fatal(err)
	}

	rd, err := trace.OpenV2(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	ranged := NewTraceOptions()
	ranged.FromNs = rd.Block(0).TimeMin + 1

	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		opt := NewTraceOptions()
		if i%2 == 1 {
			opt = ranged
		}
		buf.Reset()
		if _, _, err := zc.client.DownloadTrace(ctx, info.ID, opt, &buf); err != nil {
			t.Fatalf("download %d: %v", i, err)
		}
		if opt.FromNs == 0 && !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("download %d: bytes differ from stored blob", i)
		}
	}
	if n := atomic.LoadInt64(zc.accepts); n != 1 {
		t.Errorf("10 keep-alive downloads used %d conns, want 1", n)
	}
	if runtime.GOOS == "linux" {
		if zc.h.ZeroCopy().SendfileBytes() == 0 {
			t.Error("no sendfile bytes counted across keep-alive downloads")
		}
	}
}
