package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/service"
	"nmo/internal/trace"
)

// fleet is a test fixture: n in-process shards behind one gateway.
type fleet struct {
	shards  []*httptest.Server
	scheds  []*service.Scheduler
	gw      *Gateway
	front   *httptest.Server
	client  *service.Client
	clients []*service.Client // direct per-shard clients
}

func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	f := &fleet{}
	members := make([]string, n)
	for i := 0; i < n; i++ {
		sched := service.NewScheduler(service.SchedConfig{Workers: 2}, nil)
		t.Cleanup(sched.Close)
		srv := httptest.NewServer(service.NewServer(sched))
		t.Cleanup(srv.Close)
		f.scheds = append(f.scheds, sched)
		f.shards = append(f.shards, srv)
		f.clients = append(f.clients, service.NewClient(srv.URL))
		members[i] = srv.URL
	}
	gw, err := New(Config{Members: members, ProbeEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	f.gw = gw
	f.front = httptest.NewServer(gw)
	t.Cleanup(f.front.Close)
	f.client = service.NewClient(f.front.URL)
	return f
}

// spec is a tiny sampling job; the seed varies the content address.
func spec(seed uint64) service.JobSpec {
	return service.JobSpec{Scenarios: []service.ScenarioSpec{{
		Workload: "stream",
		Threads:  2,
		Elems:    20_000,
		Iters:    1,
		Cores:    4,
		Seed:     seed,
		Period:   700,
	}}}
}

func submitWait(t *testing.T, c *service.Client, js service.JobSpec) service.JobInfo {
	t.Helper()
	ctx := context.Background()
	info, err := c.Submit(ctx, js)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if info, err = c.Wait(ctx, info.ID, time.Millisecond); err != nil {
		t.Fatalf("wait %s: %v", info.ID, err)
	}
	return info
}

func fetchTrace(t *testing.T, c *service.Client, id string, opt service.TraceOptions) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	_, md5hex, err := c.DownloadTrace(context.Background(), id, opt, &buf)
	if err != nil {
		t.Fatalf("trace %s: %v", id, err)
	}
	return buf.Bytes(), md5hex
}

// TestGatewayEndToEnd: a job submitted through the gateway completes,
// and its trace stream — headers included — is byte-identical to
// fetching the same job directly from the shard that ran it, and to a
// fresh run of the same spec on the *other* shard (the determinism the
// whole content-addressed fleet rests on).
func TestGatewayEndToEnd(t *testing.T) {
	f := newFleet(t, 2)
	info := submitWait(t, f.client, spec(42))
	if !strings.HasPrefix(info.ID, "s") {
		t.Fatalf("gateway job ID %q lacks a shard prefix", info.ID)
	}
	shard, inner, err := f.gw.splitJobID(info.ID)
	if err != nil {
		t.Fatal(err)
	}

	doc, err := f.client.Result(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Scenarios) != 1 || doc.Scenarios[0].TraceMD5 == "" {
		t.Fatalf("gateway result doc missing scenario digest: %+v", doc)
	}

	viaGW, md5GW := fetchTrace(t, f.client, info.ID, service.NewTraceOptions())
	direct, md5Direct := fetchTrace(t, f.clients[shard], inner, service.NewTraceOptions())
	if md5GW == "" || md5GW != md5Direct {
		t.Fatalf("MD5 header via gateway %q != direct %q", md5GW, md5Direct)
	}
	if !bytes.Equal(viaGW, direct) {
		t.Fatalf("gateway trace (%d bytes) differs from direct shard trace (%d bytes)",
			len(viaGW), len(direct))
	}

	// Same spec on the other shard: a fresh engine run, identical bytes.
	other := 1 - shard
	otherInfo := submitWait(t, f.clients[other], spec(42))
	fresh, _ := fetchTrace(t, f.clients[other], otherInfo.ID, service.NewTraceOptions())
	if !bytes.Equal(viaGW, fresh) {
		t.Fatalf("shards disagree on identical spec: %d vs %d bytes", len(viaGW), len(fresh))
	}
}

// TestGatewayCacheAffinity: identical submissions through the gateway
// always land on one shard, so the second is a fleet-wide cache hit —
// zero additional engine runs anywhere — while distinct keys spread
// over the members.
func TestGatewayCacheAffinity(t *testing.T) {
	f := newFleet(t, 2)
	first := submitWait(t, f.client, spec(7))
	if first.Cached {
		t.Fatalf("first submission reported cached")
	}
	runs := f.scheds[0].EngineRuns() + f.scheds[1].EngineRuns()
	for i := 0; i < 3; i++ {
		again := submitWait(t, f.client, spec(7))
		if !again.Cached {
			t.Fatalf("resubmission %d missed the cache (routed off-shard?)", i)
		}
		if again.Key != first.Key {
			t.Fatalf("resubmission keyed %s, first %s", again.Key, first.Key)
		}
	}
	if got := f.scheds[0].EngineRuns() + f.scheds[1].EngineRuns(); got != runs {
		t.Fatalf("identical resubmissions cost %d extra engine runs fleet-wide", got-runs)
	}

	// Distinct keys must not all pile onto one shard. 20 keys on 2
	// members: the chance of a one-sided split is ~2e-6.
	for seed := uint64(100); seed < 120; seed++ {
		submitWait(t, f.client, spec(seed))
	}
	sub0 := f.scheds[0].Stats().Submitted
	sub1 := f.scheds[1].Stats().Submitted
	if sub0 == 0 || sub1 == 0 {
		t.Fatalf("all distinct keys routed to one shard: %d / %d", sub0, sub1)
	}
}

// TestGatewayStatsMerge: the fleet view sums member counters inline
// (decodable as plain SchedStats by an unmodified client) and carries
// one healthy row per member.
func TestGatewayStatsMerge(t *testing.T) {
	f := newFleet(t, 3)
	for seed := uint64(1); seed <= 6; seed++ {
		submitWait(t, f.client, spec(seed))
	}
	// The unmodified client decodes the aggregate…
	agg, err := f.client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wantSub, wantRuns, wantDemote, wantPromote uint64
	var wantMem, wantDisk int64
	for _, s := range f.scheds {
		st := s.Stats()
		wantSub += st.Submitted
		wantRuns += st.EngineRuns
		wantMem += st.CacheBytesMem
		wantDisk += st.CacheBytesDisk
		wantDemote += st.CacheDemotions
		wantPromote += st.CachePromotions
	}
	if agg.Submitted != wantSub || agg.EngineRuns != wantRuns {
		t.Fatalf("aggregate stats = %d submitted / %d runs, want %d / %d",
			agg.Submitted, agg.EngineRuns, wantSub, wantRuns)
	}
	// The cache tier columns sum across shards too — and the memory
	// tier is demonstrably populated (every shard holds its blobs).
	if agg.CacheBytesMem != wantMem || wantMem == 0 {
		t.Errorf("aggregate cache_bytes_mem = %d, want the member sum %d (> 0)", agg.CacheBytesMem, wantMem)
	}
	if agg.CacheBytesDisk != wantDisk ||
		agg.CacheDemotions != wantDemote || agg.CachePromotions != wantPromote {
		t.Errorf("aggregate tier stats disk=%d demotions=%d promotions=%d, want %d/%d/%d",
			agg.CacheBytesDisk, agg.CacheDemotions, agg.CachePromotions, wantDisk, wantDemote, wantPromote)
	}
	// …and the full body carries the per-member rows.
	resp, err := http.Get(f.front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleetStats service.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fleetStats); err != nil {
		t.Fatal(err)
	}
	if len(fleetStats.Members) != 3 {
		t.Fatalf("fleet stats has %d member rows, want 3", len(fleetStats.Members))
	}
	for _, m := range fleetStats.Members {
		if !m.Healthy || m.Stats == nil {
			t.Fatalf("member %s (shard %d) unhealthy in an all-up fleet: %+v", m.Member, m.Shard, m)
		}
	}
}

// TestGatewayFailover: killing a shard re-homes its arcs onto the
// survivor — every submission after the kill still completes, the dead
// member shows up unhealthy in the fleet view, and the gateway stays
// healthy overall.
func TestGatewayFailover(t *testing.T) {
	f := newFleet(t, 2)
	submitWait(t, f.client, spec(1))

	victim := 1
	f.shards[victim].Close() // connections now refuse
	f.scheds[victim].Close()

	// 10 distinct keys: about half belonged to the victim's arcs; all
	// must complete on the survivor via the ring-successor walk.
	for seed := uint64(200); seed < 210; seed++ {
		info := submitWait(t, f.client, spec(seed))
		if shard, _, _ := f.gw.splitJobID(info.ID); shard == victim {
			t.Fatalf("job %s routed to the dead shard", info.ID)
		}
	}

	resp, err := http.Get(f.front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleetStats service.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fleetStats); err != nil {
		t.Fatal(err)
	}
	if fleetStats.Members[victim].Healthy || fleetStats.Members[victim].Error == "" {
		t.Fatalf("dead shard still reported healthy: %+v", fleetStats.Members[victim])
	}
	if !fleetStats.Members[1-victim].Healthy {
		t.Fatalf("survivor reported unhealthy: %+v", fleetStats.Members[1-victim])
	}
	if resp, err := http.Get(f.front.URL + "/v1/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway healthz with one survivor: %v (%v)", resp.Status, err)
	}
}

// TestGatewayTraceFilterPushdown: ?from/to/core reach the shard
// unchanged, so a filtered stream through the gateway is byte-for-byte
// the shard's own filtered restream.
func TestGatewayTraceFilterPushdown(t *testing.T) {
	f := newFleet(t, 2)
	info := submitWait(t, f.client, spec(3))
	shard, inner, err := f.gw.splitJobID(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	opt := service.NewTraceOptions()
	opt.Core = 0
	viaGW, _ := fetchTrace(t, f.client, info.ID, opt)
	direct, _ := fetchTrace(t, f.clients[shard], inner, opt)
	if len(viaGW) == 0 || !bytes.Equal(viaGW, direct) {
		t.Fatalf("filtered stream differs through the gateway: %d vs %d bytes", len(viaGW), len(direct))
	}
}

// TestGatewayErrors: malformed specs bounce at the gateway without a
// network hop, unknown and mis-prefixed job IDs 404, and a job
// canceled through the gateway reports canceled.
func TestGatewayErrors(t *testing.T) {
	f := newFleet(t, 2)

	resp, err := http.Post(f.front.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"scenarios":[{"workload":"nope"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad workload through gateway: %d, want 400", resp.StatusCode)
	}
	if n := f.scheds[0].Stats().Submitted + f.scheds[1].Stats().Submitted; n != 0 {
		t.Fatalf("invalid spec reached %d shard(s)", n)
	}

	for _, id := range []string{"jdeadbeef", "s99-jdeadbeef", "s1x-j0", "s0-"} {
		if _, err := f.client.Job(context.Background(), id); err == nil ||
			!strings.Contains(err.Error(), "404") {
			t.Fatalf("job %q: err = %v, want 404", id, err)
		}
	}

	// Unknown-but-well-formed inner IDs proxy through to the shard's
	// own 404.
	if _, err := f.client.Job(context.Background(), "s0-jdeadbeef"); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown inner job: err = %v, want shard 404", err)
	}

	// Inner IDs crafted to decode into path or query metacharacters
	// must be re-escaped on the proxy hop: they address a (nonexistent)
	// job of that literal name — never another shard endpoint.
	for _, path := range []string{
		"/v1/jobs/s0-j%2F..%2F..%2Fstats", // traversal to /v1/stats
		"/v1/jobs/s0-j1%3Fscenario%3D9",   // query smuggling
		"/v1/jobs/s0-jx%2Ftrace",          // sub-route injection
	} {
		req, err := http.NewRequest(http.MethodGet, f.front.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("injection path %q: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestGatewayIDRewrite: every JobInfo that crosses the gateway —
// submit, status, cancel — carries the gateway-qualified ID, never the
// member-local one.
func TestGatewayIDRewrite(t *testing.T) {
	f := newFleet(t, 2)
	info := submitWait(t, f.client, spec(9))
	status, err := f.client.Job(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.ID != info.ID {
		t.Fatalf("status rewrote ID %q -> %q", info.ID, status.ID)
	}
	// Cancel a fresh (already-done, but the route is what's under
	// test) job over the gateway: the response must re-qualify too.
	req, _ := http.NewRequest(http.MethodDelete, f.front.URL+"/v1/jobs/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var canceled service.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&canceled); err != nil {
		t.Fatal(err)
	}
	if canceled.ID != info.ID {
		t.Fatalf("cancel rewrote ID %q -> %q", info.ID, canceled.ID)
	}
}

// TestGatewayContentAddressAgreement: the key the gateway routes on is
// the key the shard admits under — pinned by comparing the submit
// response's Key against a gateway-side ContentAddress call.
func TestGatewayContentAddressAgreement(t *testing.T) {
	f := newFleet(t, 2)
	js := spec(11)
	key, err := service.ContentAddress(js)
	if err != nil {
		t.Fatal(err)
	}
	info := submitWait(t, f.client, js)
	if info.Key != key {
		t.Fatalf("gateway hashed %s, shard admitted %s — routing and cache keys diverged", key, info.Key)
	}
	if owner := f.gw.ring.Lookup(key); owner != f.gw.members[mustShard(t, f, info.ID)].base {
		t.Fatalf("job ran on %s, ring owner is %s", f.gw.members[mustShard(t, f, info.ID)].base, owner)
	}
}

func mustShard(t *testing.T, f *fleet, id string) int {
	t.Helper()
	shard, _, err := f.gw.splitJobID(id)
	if err != nil {
		t.Fatal(err)
	}
	return shard
}

// getTrace fetches a trace over plain HTTP so the test sees the
// response framing.
func getTrace(t *testing.T, base, id, query string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("trace %s?%s: %d %v: %s", id, query, resp.StatusCode, err, body)
	}
	return resp, body
}

// TestGatewayTracePassThrough: every trace response relayed through
// the gateway keeps its sized shape — Content-Length and
// X-Nmo-Trace-Md5 from the shard, no chunking — and its bytes match
// the direct shard fetch exactly, for memory and disk tiers,
// unfiltered and filtered requests. The fleet stats view must surface
// the gateway's own relay bytes on top of the member sums.
func TestGatewayTracePassThrough(t *testing.T) {
	for _, tier := range []string{"memory", "file"} {
		t.Run(tier, func(t *testing.T) {
			var cache *service.Cache
			if tier == "file" {
				// A one-byte memory budget demotes the blob to its
				// spill file the moment it is filled.
				var err error
				cache, err = service.NewCache(service.CacheConfig{Dir: t.TempDir(), MemBudget: 1})
				if err != nil {
					t.Fatal(err)
				}
			}
			sched := service.NewScheduler(service.SchedConfig{Workers: 1}, cache)
			t.Cleanup(sched.Close)
			shardH := service.NewServer(sched)
			shard := httptest.NewServer(shardH)
			t.Cleanup(shard.Close)
			shardURL := shard.URL
			gw, err := New(Config{Members: []string{shardURL}, ProbeEvery: 100 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(gw.Close)
			front := httptest.NewServer(gw)
			t.Cleanup(front.Close)
			client := service.NewClient(front.URL)

			// Small blocks, so a time window mixes whole blocks with
			// straddlers.
			js := spec(77)
			js.Scenarios[0].BlockSamples = 32
			info := submitWait(t, client, js)
			_, inner, err := gw.splitJobID(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			job, ok := sched.Get(inner)
			if !ok {
				t.Fatal("job vanished from the shard")
			}
			blob := job.Artifacts().Traces[0]
			if blob.FileBacked() != (tier == "file") {
				t.Fatalf("blob file-backed = %v in the %s tier", blob.FileBacked(), tier)
			}
			stored, err := blob.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			rd, err := trace.OpenV2(bytes.NewReader(stored))
			if err != nil {
				t.Fatal(err)
			}
			b1 := rd.Block(1)

			for _, fc := range []struct{ name, query string }{
				{"unfiltered", ""},
				{"time", fmt.Sprintf("from=%d&to=%d", b1.TimeMin, b1.TimeMax+1)},
				{"core", "core=1"},
			} {
				resp, body := getTrace(t, front.URL, info.ID, fc.query)
				if resp.ContentLength < 0 || len(resp.TransferEncoding) != 0 {
					t.Errorf("%s: gateway re-framed the sized response: CL=%d TE=%v",
						fc.name, resp.ContentLength, resp.TransferEncoding)
				}
				if resp.ContentLength != int64(len(body)) {
					t.Errorf("%s: Content-Length %d != body %d bytes", fc.name, resp.ContentLength, len(body))
				}
				dresp, direct := getTrace(t, shardURL, inner, fc.query)
				if got, want := resp.Header.Get("X-Nmo-Trace-Md5"), dresp.Header.Get("X-Nmo-Trace-Md5"); got != want || got == "" {
					t.Errorf("%s: X-Nmo-Trace-Md5 via gateway %q, shard's %q", fc.name, got, want)
				}
				if !bytes.Equal(body, direct) {
					t.Errorf("%s: gateway bytes (%d) differ from the direct shard fetch (%d)",
						fc.name, len(body), len(direct))
				}
				if fc.name == "unfiltered" && !bytes.Equal(body, stored) {
					t.Error("unfiltered: relayed bytes differ from the stored blob")
				}
			}

			if n := shardH.ZeroCopy().SendfileBytes(); (n > 0) != (tier == "file") {
				t.Errorf("shard counted %d sendfile bytes serving from the %s tier", n, tier)
			}
			if gw.ZeroCopy().FallbackBytes() == 0 {
				t.Error("gateway relay counted no trace bytes")
			}
			// Counters only grow, so reading them before the stats
			// call keeps the comparison free of late increments.
			want := shardH.ZeroCopy().SendfileBytes() + shardH.ZeroCopy().FallbackBytes() +
				gw.ZeroCopy().FallbackBytes()
			agg, err := client.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := agg.ZcSendfileBytes + agg.ZcFallbackBytes; got < want {
				t.Errorf("fleet stats count %d data-plane bytes, members+gateway hold %d", got, want)
			}
			if agg.ZcSpliceBytes != 0 {
				t.Errorf("fleet stats report %d splice bytes; nothing splices", agg.ZcSpliceBytes)
			}
		})
	}
}

// TestGatewaySpliceRelay keeps the scenario the gateway's old splice
// relay was built for, now served by the net/http relay: a large blob
// (far past one relay buffer) demoted to its spill file on a shard
// that sends it with sendfile, fetched through the gateway several times in a row
// over reused upstream conns, then core-filtered. Every body and MD5
// header must equal the direct shard fetch, the shard must still
// sendfile, and nothing may count splice bytes.
func TestGatewaySpliceRelay(t *testing.T) {
	cache, err := service.NewCache(service.CacheConfig{Dir: t.TempDir(), MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	sched := service.NewScheduler(service.SchedConfig{Workers: 1}, cache)
	t.Cleanup(sched.Close)
	shardH := service.NewServer(sched)
	shard := httptest.NewServer(shardH)
	t.Cleanup(shard.Close)
	shardURL := shard.URL

	gw, err := New(Config{Members: []string{shardURL}, ProbeEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	front := httptest.NewServer(gw)
	t.Cleanup(front.Close)
	client := service.NewClient(front.URL)

	js := spec(31)
	js.Scenarios[0].Elems = 200_000
	js.Scenarios[0].Iters = 4
	js.Scenarios[0].Period = 64
	info := submitWait(t, client, js)
	_, inner, err := gw.splitJobID(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	job, ok := sched.Get(inner)
	if !ok {
		t.Fatal("job vanished from the shard")
	}
	if !job.Artifacts().Traces[0].FileBacked() {
		t.Fatal("blob not demoted; the chain must start at the shard's sendfile tier")
	}

	direct, md5Direct := fetchTrace(t, service.NewClient(shardURL), inner, service.NewTraceOptions())
	if len(direct) < 64<<10 {
		t.Fatalf("fixture blob only %d bytes; too small to outgrow one relay buffer", len(direct))
	}
	for i := 0; i < 3; i++ {
		viaGW, md5GW := fetchTrace(t, client, info.ID, service.NewTraceOptions())
		if !bytes.Equal(viaGW, direct) {
			t.Fatalf("fetch %d: gateway bytes (%d) differ from direct shard fetch (%d)",
				i, len(viaGW), len(direct))
		}
		if md5GW != md5Direct {
			t.Fatalf("fetch %d: MD5 header via gateway %q != shard's %q", i, md5GW, md5Direct)
		}
	}

	opt := service.NewTraceOptions()
	opt.Core = 0
	viaGW, md5GW := fetchTrace(t, client, info.ID, opt)
	directF, md5F := fetchTrace(t, service.NewClient(shardURL), inner, opt)
	if len(viaGW) == 0 || !bytes.Equal(viaGW, directF) || md5GW != md5F {
		t.Fatalf("core-filtered stream differs through the gateway: %d vs %d bytes, MD5 %q vs %q",
			len(viaGW), len(directF), md5GW, md5F)
	}

	if n := shardH.ZeroCopy().SendfileBytes(); n == 0 {
		t.Error("shard served its spill file with zero sendfile bytes")
	}
	if n := gw.ZeroCopy().FallbackBytes(); n < int64(3*len(direct)) {
		t.Errorf("gateway relay counted %d bytes, relayed at least %d", n, 3*len(direct))
	}
	want := shardH.ZeroCopy().SendfileBytes() + shardH.ZeroCopy().FallbackBytes() +
		gw.ZeroCopy().FallbackBytes()
	agg, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.ZcSendfileBytes + agg.ZcFallbackBytes; got < want {
		t.Errorf("fleet stats count %d data-plane bytes, members+gateway hold %d", got, want)
	}
	if agg.ZcSpliceBytes != 0 {
		t.Errorf("fleet stats report %d splice bytes; nothing splices", agg.ZcSpliceBytes)
	}
}

// TestGatewayRelayClientCancel pins the stalled-shard escape hatch:
// a shard that stops sending mid-body must not pin the relay past the
// downstream request's lifetime. The fake shard promises 1 MiB,
// delivers 8 KiB, and stalls; the client cancels; the gateway must
// classify the broken relay as a client abort promptly.
func TestGatewayRelayClientCancel(t *testing.T) {
	stall := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Nmo-Trace-Md5", "00000000000000000000000000000000")
		w.Header().Set("Content-Length", strconv.Itoa(1<<20))
		w.WriteHeader(http.StatusOK)
		w.Write(make([]byte, 8<<10))
		w.(http.Flusher).Flush()
		<-stall // promised 1 MiB, never delivers the rest
	})
	shard := httptest.NewServer(mux)
	t.Cleanup(shard.Close)
	// Cleanups run last-in first-out: release the stalled handler
	// before shard.Close waits for it.
	t.Cleanup(func() { close(stall) })

	gw, err := New(Config{Members: []string{shard.URL}, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	front := httptest.NewServer(gw)
	t.Cleanup(front.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/v1/jobs/s0-jstall/trace", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The delivered prefix must flow through before the stall bites.
	if _, err := io.CopyN(io.Discard, resp.Body, 8<<10); err != nil {
		t.Fatalf("reading the delivered prefix: %v", err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for gw.ZeroCopy().ClientAborts() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gateway never released the stalled relay after the client canceled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGatewayTenantIsolation: in dev-header mode the tenant crosses
// the gateway hop, and the owning shard answers every by-ID route for
// another tenant's job with the not_found envelope an unknown ID gets.
func TestGatewayTenantIsolation(t *testing.T) {
	f := newFleet(t, 1)
	do := func(method, path, tenant string) *http.Response {
		t.Helper()
		var body io.Reader
		if method == http.MethodPost {
			body = strings.NewReader(mustJSON(t, spec(530)))
		}
		req, err := http.NewRequest(method, f.front.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set(auth.TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := do(http.MethodPost, "/v1/jobs", "alice")
	var info service.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, inner, err := f.gw.splitJobID(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := f.scheds[0].Get(inner)
	if !ok {
		t.Fatal("job vanished from the shard")
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish")
	}

	routes := []struct{ method, suffix string }{
		{"GET", ""}, {"GET", "/result"}, {"GET", "/trace"}, {"DELETE", ""},
	}
	for _, rt := range routes {
		for _, tenant := range []string{"bob", ""} { // "" = default tenant
			resp := do(rt.method, "/v1/jobs/"+info.ID+rt.suffix, tenant)
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var env struct{ Error obs.APIError }
			json.Unmarshal(raw, &env)
			if resp.StatusCode != http.StatusNotFound || env.Error.Code != obs.CodeNotFound ||
				env.Error.Message != fmt.Sprintf("unknown job %q", inner) {
				t.Errorf("%s %s as %q = %d %s, want the unknown-ID not_found envelope",
					rt.method, rt.suffix, tenant, resp.StatusCode, raw)
			}
		}
	}
	for _, rt := range routes {
		resp := do(rt.method, "/v1/jobs/"+info.ID+rt.suffix, "alice")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("owner %s %s = %d, want 200", rt.method, rt.suffix, resp.StatusCode)
		}
	}
}
