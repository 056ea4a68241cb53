package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nmo/internal/obs"
	"nmo/internal/trace"
	"nmo/internal/trace/tracetest"
)

// tcpServer is a real-TCP server wired exactly like cmd/nmod: a plain
// http.Server over a plain listener, so file-tier plan extents reach
// net/http's sendfile path.
type tcpServer struct {
	h       *Server
	client  *Client
	accepts *int64
}

// countingListener counts Accept calls so the keep-alive test can
// prove conn reuse across file-tier serves.
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

func newTCPServer(t *testing.T, sched *Scheduler) *tcpServer {
	t.Helper()
	h := NewServer(sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts := new(int64)
	srv := &http.Server{Handler: h}
	go srv.Serve(countingListener{ln, accepts})
	t.Cleanup(func() { srv.Close() })
	return &tcpServer{
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
// filter (none, time range, full span, core). Every cell is one span
// plan, so every response must be sized, carry an X-Nmo-Trace-Md5
// equal to its body's rolling MD5, and hold exactly the naive
// oracle's bytes — the storage tier may never change the wire.
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

				srv := newTCPServer(t, sched)
				// Resubmit via HTTP to learn the job ID the client sees
				// (same content address → cache hit, no second run).
				info, err := srv.client.Submit(ctx, spec)
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
				var wantSF, served int64
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
					body, md5hex, size := getTrace(t, srv.client.Base, id, fc.lo, fc.hi, fc.core)
					if !bytes.Equal(body, want) {
						t.Errorf("%s: body differs from the oracle (%d vs %d bytes)", fc.name, len(body), len(want))
					}
					if size != int64(len(body)) {
						t.Errorf("%s: Content-Length %d, body %d bytes", fc.name, size, len(body))
					}
					got, err := trace.OpenV2(bytes.NewReader(body))
					if err != nil {
						t.Fatalf("%s: served stream is not a valid v2 file: %v", fc.name, err)
					}
					sum, err := got.VerifyMD5()
					if err != nil || md5hex != hex.EncodeToString(sum[:]) {
						t.Errorf("%s: X-Nmo-Trace-Md5 %q, body rolling MD5 %x (%v)", fc.name, md5hex, sum, err)
					}

					// Every extent of a file-tier plan is credited as
					// sendfile — the whole blob unfiltered, every block
					// on the full span, block 1 in the time range. (Core
					// filters alias through CoreMask, so they never have
					// extents.) Everything else is fallback. The handler
					// credits after the body leaves, so wait for the
					// counts to land.
					if tier == "file" {
						n := extentBytes(t, rd, len(stored), fc.lo, fc.hi, fc.core)
						if (n > 0) != (fc.name != "core") {
							t.Fatalf("%s: plan has %d extent bytes", fc.name, n)
						}
						wantSF += n
					}
					served += int64(len(body))
					zc := srv.h.ZeroCopy()
					deadline := time.Now().Add(5 * time.Second)
					for zc.SendfileBytes()+zc.FallbackBytes() != served && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					if got := zc.SendfileBytes(); got != wantSF {
						t.Errorf("%s: sendfile bytes %d, want %d", fc.name, got, wantSF)
					}
					if got := zc.SendfileBytes() + zc.FallbackBytes(); got != served {
						t.Errorf("%s: sendfile+fallback %d, served %d", fc.name, got, served)
					}
				}
			})
		}
	}
}

// TestTraceServeKeepAlive proves the file-tier path preserves
// HTTP/1.1 framing: ten sequential downloads (unfiltered + filtered,
// so both the whole-blob and filtered plans run) over one client must
// reuse one TCP conn — if extent bytes escaped net/http's response
// accounting, the Content-Length bookkeeping would break and the conn
// would die after the first response.
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

	srv := newTCPServer(t, sched)
	ctx := context.Background()
	info, err := srv.client.Submit(ctx, quickJob(92))
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
		if _, _, err := srv.client.DownloadTrace(ctx, info.ID, opt, &buf); err != nil {
			t.Fatalf("download %d: %v", i, err)
		}
		if opt.FromNs == 0 && !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("download %d: bytes differ from stored blob", i)
		}
	}
	if n := atomic.LoadInt64(srv.accepts); n != 1 {
		t.Errorf("10 keep-alive downloads used %d conns, want 1", n)
	}
	if srv.h.ZeroCopy().SendfileBytes() == 0 {
		t.Error("no sendfile bytes counted across keep-alive downloads")
	}
}

// readFromConn records what net/http's response.ReadFrom hands the
// conn: the reader's dynamic type and, for an *io.LimitedReader over
// an *os.File (the shape net.sendFile accepts), its N.
type readFromConn struct {
	*net.TCPConn
	log *readFromLog
}

// readFromLog is one listener's ReadFrom record. Extents for a file
// range log their length; any other reader logs -1.
type readFromLog struct {
	mu sync.Mutex
	ns []int64
}

func (c readFromConn) ReadFrom(r io.Reader) (int64, error) {
	n := int64(-1)
	if lr, ok := r.(*io.LimitedReader); ok {
		if _, ok := lr.R.(*os.File); ok {
			n = lr.N
		}
	}
	c.log.mu.Lock()
	c.log.ns = append(c.log.ns, n)
	c.log.mu.Unlock()
	return c.TCPConn.ReadFrom(r)
}

func (l *readFromLog) take() []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	ns := l.ns
	l.ns = nil
	return ns
}

type readFromListener struct {
	net.Listener
	log *readFromLog
}

func (l readFromListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		return readFromConn{tc, l.log}, nil
	}
	return c, err
}

// TestTraceServeSendfileEligible pins that the offload is real, not
// assumed: served through NewServer (metrics middleware plus auth) on
// a real TCP listener, every file-tier extent must reach the conn's
// ReadFrom as an *io.LimitedReader over the spill *os.File with N
// equal to the extent's length — the one shape net.sendFile turns
// into sendfile(2) — for unfiltered and time-window plans alike.
func TestTraceServeSendfileEligible(t *testing.T) {
	cache, err := NewCache(CacheConfig{Dir: t.TempDir(), MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedConfig{Workers: 1}, cache)
	t.Cleanup(sched.Close)
	spec := quickJob(93)
	spec.Scenarios[0].BlockSamples = 32
	blob := runJob(t, sched, spec)
	if !blob.FileBacked() {
		t.Fatal("fixture blob is not file-backed")
	}
	stored := blobBytes(t, blob)
	rd, err := trace.OpenV2(bytes.NewReader(stored))
	if err != nil {
		t.Fatal(err)
	}

	log := new(readFromLog)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewServer(sched)}
	go srv.Serve(readFromListener{ln, log})
	t.Cleanup(func() { srv.Close() })
	base := "http://" + ln.Addr().String()
	info, err := NewClient(base).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	b1 := rd.Block(1)
	for _, fc := range []struct {
		name   string
		lo, hi uint64
	}{
		{"unfiltered", 0, 0},
		{"timerange", b1.TimeMin, b1.TimeMax + 1},
	} {
		var want []int64
		if fc.lo == 0 && fc.hi == 0 {
			want = []int64{int64(len(stored))}
		} else {
			plan, err := trace.RestreamPlanExact(rd, fc.lo, fc.hi, -1)
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range plan.Segments {
				if seg.Data == nil {
					want = append(want, seg.Len)
				}
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: plan has no extents", fc.name)
		}
		getTrace(t, base, info.ID, fc.lo, fc.hi, -1)
		if got := log.take(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: conn ReadFrom saw %v, want file ranges %v", fc.name, got, want)
		}
	}
}

// TestTraceServeSendfileSyscalls checks the offload from the kernel's
// side on a multi-MiB extent: the write-family syscalls per request
// (syscw in /proc/self/io, which counts each sendfile(2) and write(2))
// must stay O(1), where a user-space copy would issue one per 32 KiB.
// Client and server share the process; the client only reads, so it
// adds the request write and little else.
func TestTraceServeSendfileSyscalls(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("syscw is a Linux /proc/self/io field")
	}
	if _, err := readSyscw(); err != nil {
		t.Skip(err)
	}
	cache, err := NewCache(CacheConfig{Dir: t.TempDir(), MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedConfig{Workers: 1}, cache)
	t.Cleanup(sched.Close)
	spec := benchSpec(1)
	spec.Scenarios[0].Elems = 200_000
	spec.Scenarios[0].Iters = 24
	spec.Scenarios[0].Period = 64
	blob := runJob(t, sched, spec)
	if !blob.FileBacked() || blob.Size() < 4<<20 {
		t.Fatalf("fixture blob: %d bytes, file-backed %v; want a >= 4 MiB spill file", blob.Size(), blob.FileBacked())
	}

	srv := newTCPServer(t, sched)
	info, err := srv.client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	traceURL := srv.client.Base + "/v1/jobs/" + info.ID + "/trace"
	fetch := func() {
		resp, err := http.Get(traceURL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		n, err := io.Copy(io.Discard, resp.Body)
		if err != nil || n != blob.Size() {
			t.Fatalf("downloaded %d of %d bytes: %v", n, blob.Size(), err)
		}
	}
	fetch() // warm the keep-alive conn

	// The fewest syscalls over a few requests, so one preempted or
	// backpressured request cannot fail the bound.
	best := int64(-1)
	for i := 0; i < 3; i++ {
		before, _ := readSyscw()
		fetch()
		after, _ := readSyscw()
		if d := after - before; best < 0 || d < best {
			best = d
		}
	}
	copyWrites := blob.Size() / (32 << 10)
	t.Logf("%d-byte extent: %d write syscalls per request (a 32 KiB copy needs %d)", blob.Size(), best, copyWrites)
	if best > copyWrites/4 {
		t.Errorf("%d write syscalls per %d-byte request; want O(1), a 32 KiB copy is %d", best, blob.Size(), copyWrites)
	}
}

// readSyscw returns the process's write-family syscall count.
func readSyscw() (int64, error) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("no syscw in /proc/self/io")
}

// TestTraceServeHead: the GET trace route also answers HEAD (Go 1.22
// mux). A HEAD must carry the GET's Content-Length and
// X-Nmo-Trace-Md5, send no body, and credit no data-plane or
// response-byte counter — on both tiers, unfiltered and filtered.
func TestTraceServeHead(t *testing.T) {
	for _, tier := range []string{"memory", "file"} {
		t.Run(tier, func(t *testing.T) {
			var cache *Cache
			if tier == "file" {
				var err error
				cache, err = NewCache(CacheConfig{Dir: t.TempDir(), MemBudget: 1})
				if err != nil {
					t.Fatal(err)
				}
			}
			sched := NewScheduler(SchedConfig{Workers: 1}, cache)
			t.Cleanup(sched.Close)
			spec := quickJob(94)
			spec.Scenarios[0].BlockSamples = 32
			blob := runJob(t, sched, spec)
			if blob.FileBacked() != (tier == "file") {
				t.Fatalf("blob file-backed = %v in %s tier", blob.FileBacked(), tier)
			}
			srv := newTCPServer(t, sched)
			info, err := srv.client.Submit(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := trace.OpenV2(bytes.NewReader(blobBytes(t, blob)))
			if err != nil {
				t.Fatal(err)
			}
			b1 := rd.Block(1)
			traceURL := srv.client.Base + "/v1/jobs/" + info.ID + "/trace"
			queries := []string{"", fmt.Sprintf("?from=%d&to=%d", b1.TimeMin, b1.TimeMax+1)}
			heads := make([]*http.Response, len(queries))
			for i, q := range queries {
				resp, err := http.Head(traceURL + q)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || len(body) != 0 {
					t.Fatalf("HEAD%s: status %d, %d body bytes", q, resp.StatusCode, len(body))
				}
				heads[i] = resp
			}
			zc := srv.h.ZeroCopy()
			if n := zc.SendfileBytes() + zc.FallbackBytes(); n != 0 {
				t.Errorf("HEADs credited %d data-plane bytes", n)
			}
			series := `nmo_http_response_bytes_sum{route="GET /v1/jobs/{id}/trace"}`
			if n, ok := scrapeMetrics(t, srv.client.Base)[series]; !ok || n != 0 {
				t.Errorf("HEADs credited %v response bytes (series present: %v)", n, ok)
			}

			for i, q := range queries {
				resp, err := http.Get(traceURL + q)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if h := heads[i]; h.ContentLength != int64(len(body)) || len(body) == 0 {
					t.Errorf("HEAD%s: Content-Length %d, GET body %d bytes", q, h.ContentLength, len(body))
				}
				if h, g := heads[i].Header.Get("X-Nmo-Trace-Md5"), resp.Header.Get("X-Nmo-Trace-Md5"); h != g || h == "" {
					t.Errorf("HEAD%s: X-Nmo-Trace-Md5 %q, GET's %q", q, h, g)
				}
			}
		})
	}
}

// fdCount returns the number of open descriptors in the process.
func fdCount(t *testing.T) int {
	t.Helper()
	des, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(des)
}

// TestTraceServeEvictedSpill pins the per-request spill-file open
// against disk-tier eviction: file-tier serves close their descriptor
// (on Linux, 100 downloads leave the process's fd count where it
// was), a descriptor opened before an eviction still reads the whole
// blob (POSIX unlink semantics), and a request after the eviction
// gets the not_found envelope.
func TestTraceServeEvictedSpill(t *testing.T) {
	const diskBudget = 4 << 20
	cache, err := NewCache(CacheConfig{Dir: t.TempDir(), MemBudget: 1, DiskBudget: diskBudget})
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedConfig{Workers: 1}, cache)
	t.Cleanup(sched.Close)
	job, err := sched.Submit(quickJob(96))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	blob := job.Artifacts().Traces[0]
	if !blob.FileBacked() || blob.Size() >= diskBudget {
		t.Fatalf("fixture blob: %d bytes, file-backed %v; want a spill file under %d bytes",
			blob.Size(), blob.FileBacked(), diskBudget)
	}
	want := blobBytes(t, blob)
	srv := newTCPServer(t, sched)
	ctx := context.Background()

	var buf bytes.Buffer
	download := func() {
		buf.Reset()
		if _, _, err := srv.client.DownloadTrace(ctx, job.ID, NewTraceOptions(), &buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatal("file-tier download differs from the stored blob")
		}
	}
	download() // open the keep-alive conn before counting
	if runtime.GOOS == "linux" {
		// Other tests' lingering conns and finalizers may close fds
		// meanwhile, so only growth is a leak.
		before := fdCount(t)
		for i := 0; i < 100; i++ {
			download()
		}
		if after := fdCount(t); after > before {
			t.Errorf("100 file-tier downloads grew the fd count %d -> %d", before, after)
		}
	}

	_, f, err := blob.open()
	if err != nil || f == nil {
		t.Fatalf("open file-backed blob: %v, %v", f, err)
	}
	defer f.Close()
	path := f.Name()

	// A filler entry of the whole disk budget makes the job's entry
	// the coldest over budget: it is evicted and its files unlinked.
	fill, leader := cache.Acquire(strings.Repeat("ff", 32))
	if !leader {
		t.Fatal("filler key already cached")
	}
	cache.Fill(fill, &JobArtifacts{Traces: []*TraceBlob{
		NewTraceBlob("fill", make([]byte, diskBudget), [16]byte{}),
	}})
	if st := cache.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("evicted spill file %s: stat err %v, want not-exist", path, err)
	}

	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("descriptor opened before eviction read %d of %d bytes (%v)", len(got), len(want), err)
	}

	resp, err := http.Get(srv.client.Base + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace after eviction: status %d, want 404", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != obs.CodeNotFound {
		t.Errorf("trace after eviction: code %q, want %q", e.Code, obs.CodeNotFound)
	}
}

// TestTraceServeOpenError: a spill-file open that fails for any
// reason but a missing file is the server's fault, not an eviction.
// A path that runs through a regular file fails with ENOTDIR, standing
// in for EMFILE and the like, and must answer 500 internal.
func TestTraceServeOpenError(t *testing.T) {
	sched := newTestScheduler(t, SchedConfig{Workers: 1})
	job, err := sched.Submit(quickJob(97))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	art := job.Artifacts()
	regular := filepath.Join(t.TempDir(), "regular")
	if err := os.WriteFile(regular, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	b := art.Traces[0]
	art.Traces[0] = fileTraceBlob(b.Name, filepath.Join(regular, "blob.nmo2"), b.Size(), b.MD5)

	srv := newTCPServer(t, sched)
	resp, err := http.Get(srv.client.Base + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != obs.CodeInternal {
		t.Errorf("code %q, want %q", e.Code, obs.CodeInternal)
	}
}
