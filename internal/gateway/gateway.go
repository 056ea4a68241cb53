package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/service"
)

// Config sizes a gateway.
type Config struct {
	// Members are the shard daemon addresses ("host:port" or full
	// URLs). Their order fixes each shard's index — the routing prefix
	// baked into gateway job IDs — so every gateway instance configured
	// with the same list routes identically (the tier holds no state a
	// restart could lose).
	Members []string
	// Replicas is the ring's virtual-node count per member (<= 0:
	// DefaultReplicas).
	Replicas int
	// ProbeEvery is the health-probe interval (<= 0: 2s); ProbeTimeout
	// bounds one probe round-trip (<= 0: 2s) and one member leg of the
	// /v1/stats fan-out. Probes hit each member's /v1/stats.
	ProbeEvery   time.Duration
	ProbeTimeout time.Duration
	// Audit is the gateway's JSONL audit sink (nil: no auditing). The
	// gateway audits the HTTP edge; job transitions are audited by the
	// shard that runs them, joined by the shared request ID.
	Audit *obs.AuditLog
	// Auth is the gateway's identity stance: mode, HS256 key, and the
	// tenant quota table. The gateway is the terminating auth edge —
	// it validates end-user credentials, charges per-tenant rate
	// limits, and forwards the resolved principal to shards as a
	// signed internal header.
	Auth auth.Config
}

// member is one shard in the registry: its client, plus the health
// state the probe loop and proxy error paths both feed. Health flips
// eagerly on proxy transport errors (a dead shard is discovered by the
// first request that hits it, not the next probe tick) and recovers
// via the probe loop.
type member struct {
	base   string // normalized base URL (also the ring label)
	client *service.Client

	healthy atomic.Bool
	lastErr atomic.Value // string
}

func (m *member) markDown(err error) {
	m.lastErr.Store(err.Error())
	m.healthy.Store(false)
}

func (m *member) markUp() {
	m.healthy.Store(true)
	m.lastErr.Store("")
}

func (m *member) errString() string {
	if s, ok := m.lastErr.Load().(string); ok {
		return s
	}
	return ""
}

// Gateway fronts a fleet of nmod daemons behind the daemon's own HTTP
// API: submissions are routed by consistent-hashing their content
// address (computed gateway-side with service.ContentAddress — the
// exact key the shard's cache will file the result under), job reads
// are routed by the shard prefix carried in every gateway job ID, and
// /v1/stats fans out and merges. Existing clients (service.Client,
// nmoprof -remote, nmostat -remote, plain curl) work unchanged against
// a gateway URL.
type Gateway struct {
	members []*member
	byBase  map[string]*member
	ring    *Ring
	router  *obs.Router
	httpc   *http.Client
	zc      *service.Counters
	reg     *obs.Registry
	httpm   *obs.HTTPMetrics
	auth    *auth.Middleware

	probeEvery   time.Duration
	probeTimeout time.Duration
	stop         chan struct{}
	wg           sync.WaitGroup
	closeOnce    sync.Once
}

// New builds a gateway over a fixed member list and starts its health
// probe loop. Members start healthy — the optimistic default costs at
// most one failed proxy hop before the registry learns better.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("gateway: no members configured")
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	g := &Gateway{
		byBase: make(map[string]*member),
		ring:   NewRing(cfg.Replicas),
		// No overall client timeout — trace bodies legitimately stream
		// for as long as they stream — but dial and response-header
		// timeouts turn a hung-but-connected shard into a transport
		// error the registry can fail over on, instead of an in-flight
		// request stalled forever. (Every proxied endpoint writes its
		// headers at admission time, so a healthy shard always beats
		// the header timeout.)
		httpc: &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			ResponseHeaderTimeout: 30 * time.Second,
		}},
		probeEvery:   cfg.ProbeEvery,
		probeTimeout: cfg.ProbeTimeout,
		stop:         make(chan struct{}),
		zc:           new(service.Counters),
		reg:          obs.NewRegistry(),
	}
	obs.RegisterBuildInfo(g.reg)
	service.RegisterDataPlane(g.reg, g.zc)
	g.httpm = obs.NewHTTPMetrics(g.reg, cfg.Audit)
	var err error
	if g.auth, err = auth.NewMiddleware(cfg.Auth); err != nil {
		return nil, err
	}
	for _, addr := range cfg.Members {
		c := service.NewClient(addr)
		if g.byBase[c.Base] != nil {
			return nil, fmt.Errorf("gateway: member %q duplicated", addr)
		}
		m := &member{base: c.Base, client: c}
		m.markUp()
		g.members = append(g.members, m)
		g.byBase[c.Base] = m
		g.ring.Add(c.Base)
	}

	// The same route table and auth stance as the shard server: job
	// routes behind the auth middleware (with the submission rate
	// limit on POST), the operational read-only surface open.
	rt := obs.NewRouter(g.httpm)
	protect, limit := g.auth.Protect, g.auth.LimitSubmit
	rt.HandleFunc("POST", "/v1/jobs", g.handleSubmit, protect, limit)
	rt.HandleFunc("GET", "/v1/jobs/{id}", g.jobProxy(""), protect)
	rt.HandleFunc("DELETE", "/v1/jobs/{id}", g.jobProxy(""), protect)
	rt.HandleFunc("GET", "/v1/jobs/{id}/result", g.jobProxy("/result"), protect)
	rt.HandleFunc("GET", "/v1/jobs/{id}/trace", g.jobProxy("/trace"), protect)
	rt.HandleFunc("GET", "/v1/stats", g.handleStats)
	rt.HandleFunc("GET", "/v1/healthz", g.handleHealthz)
	rt.Handle("GET", "/metrics", obs.Handler(g.reg))
	g.router = rt

	g.wg.Add(1)
	go g.probeLoop()
	return g, nil
}

// setTenantHeaders forwards the authenticated principal on a
// gateway→shard hop: the tenant plus an HMAC over it when a key is
// configured (the shard verifies the signature instead of re-parsing
// the JWT), or the dev internal marker in keyless none mode. Either
// way the shard sees Via "internal" and skips its own rate limiter —
// the tenant was already charged at this edge.
func (g *Gateway) setTenantHeaders(h http.Header, r *http.Request) {
	p, ok := auth.PrincipalFrom(r.Context())
	if !ok {
		return
	}
	h.Set(auth.TenantHeader, p.Tenant)
	if key := g.auth.Key(); len(key) > 0 {
		h.Set(auth.TenantSigHeader, auth.SignTenant(key, p.Tenant))
	} else {
		h.Set(auth.InternalHeader, "1")
	}
}

// Close stops the probe loop.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// ZeroCopy returns the gateway's data-plane counters: trace bytes
// relayed (all through the user-space copy) and terminal copy
// outcomes.
func (g *Gateway) ZeroCopy() *service.Counters { return g.zc }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.router.ServeHTTP(w, r)
}

// probeLoop refreshes member health on a fixed cadence. One round runs
// immediately so a gateway booted against a half-dead fleet reports
// truthfully from the first healthz.
func (g *Gateway) probeLoop() {
	defer g.wg.Done()
	g.probeOnce()
	t := time.NewTicker(g.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.probeOnce()
		}
	}
}

func (g *Gateway) probeOnce() {
	var wg sync.WaitGroup
	for _, m := range g.members {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), g.probeTimeout)
			defer cancel()
			// Liveness only: /v1/healthz costs the shard nothing (no
			// stats snapshot under the scheduler lock) and needs no
			// credentials, so probing stays cheap at any fleet size.
			if err := m.client.Healthz(ctx); err != nil {
				m.markDown(err)
			} else {
				m.markUp()
			}
		}()
	}
	wg.Wait()
}

// healthyCount returns the number of members currently believed up.
func (g *Gateway) healthyCount() int {
	n := 0
	for _, m := range g.members {
		if m.healthy.Load() {
			n++
		}
	}
	return n
}

// jobID prefixes a member-local job ID with its shard index. The
// prefix is the only routing state a job read needs, and it lives in
// the ID itself — any gateway instance over the same member list can
// serve it.
func jobID(shard int, id string) string {
	return fmt.Sprintf("s%d-%s", shard, id)
}

// splitJobID resolves a gateway job ID back to (shard index, inner
// ID).
func (g *Gateway) splitJobID(id string) (int, string, error) {
	rest, ok := strings.CutPrefix(id, "s")
	if !ok {
		return 0, "", fmt.Errorf("unknown job %q (gateway IDs look like s0-j...)", id)
	}
	idxStr, inner, ok := strings.Cut(rest, "-")
	if !ok || inner == "" {
		return 0, "", fmt.Errorf("unknown job %q (gateway IDs look like s0-j...)", id)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil || idx < 0 || idx >= len(g.members) {
		return 0, "", fmt.Errorf("unknown job %q (no shard %q)", id, idxStr)
	}
	return idx, inner, nil
}

// shardIndex maps a member back to its configured index.
func (g *Gateway) shardIndex(m *member) int {
	for i, o := range g.members {
		if o == m {
			return i
		}
	}
	return -1 // unreachable: members is fixed at construction
}

// handleSubmit routes a submission: hash the spec's content address,
// walk the ring sequence from its owner, and submit to the first
// member that takes it. Unhealthy members are skipped (bounded
// re-mapping: only arcs owned by dead shards move, each to its ring
// successor); a transport failure marks the member down and moves on,
// so a freshly-dead shard costs one failed hop, not a failed job.
// Shard-side HTTP rejections (400 bad spec, 429 queue full, 503
// shutting down) pass through verbatim — they are answers, not
// routing failures.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxSpecBytes))
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, obs.CodeBadSpec, "bad job spec: "+err.Error())
		return
	}
	var spec service.JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, obs.CodeBadSpec, "bad job spec: "+err.Error())
		return
	}
	key, err := service.ContentAddress(spec)
	if err != nil {
		// The same rejection the shard would produce, without spending
		// a network hop on a spec no member will accept.
		obs.WriteError(w, r, http.StatusBadRequest, obs.CodeBadSpec, err.Error())
		return
	}

	// Candidate order: the ring sequence with healthy members first.
	// The unhealthy tail means a fleet whose probes all went stale
	// still gets every member tried before the gateway gives up.
	seq := g.ring.Seq(key)
	candidates := make([]*member, 0, len(seq))
	for _, base := range seq {
		if m := g.byBase[base]; m.healthy.Load() {
			candidates = append(candidates, m)
		}
	}
	for _, base := range seq {
		if m := g.byBase[base]; !m.healthy.Load() {
			candidates = append(candidates, m)
		}
	}
	var lastErr error
	for _, m := range candidates {
		done, err := g.submitTo(w, r, m, body)
		if done {
			return
		}
		lastErr = err
	}
	obs.WriteError(w, r, http.StatusServiceUnavailable, obs.CodeUpstream,
		fmt.Sprintf("no reachable shard for key %.12s…: %v", key, lastErr))
}

// submitTo forwards a submission to one member. done means a response
// was written (success or a shard-side rejection passed through);
// false with an error means the member was unreachable and the caller
// should try the next ring successor.
func (g *Gateway) submitTo(w http.ResponseWriter, r *http.Request, m *member, body []byte) (done bool, err error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		m.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, obs.RequestID(r.Context()))
	g.setTenantHeaders(req.Header, r)
	resp, err := g.httpc.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			return true, err // the client went away; nothing to write
		}
		m.markDown(err)
		return false, err
	}
	defer resp.Body.Close()
	m.markUp()
	if resp.StatusCode != http.StatusOK {
		g.copyResponse(w, r, resp)
		return true, nil
	}
	var info service.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		obs.WriteError(w, r, http.StatusBadGateway, obs.CodeUpstream,
			fmt.Sprintf("shard %s: bad submit response: %v", m.base, err))
		return true, nil
	}
	info.ID = jobID(g.shardIndex(m), info.ID)
	service.WriteJSON(w, http.StatusOK, info)
	return true, nil
}

// jobProxy builds the handler for one by-ID route (suffix "" for
// status/cancel, "/result", "/trace"): it routes on the ID's shard
// prefix and proxies verbatim — including the trace stream's
// Content-Length, filter query push-down, and X-Nmo-Trace-Md5 header.
// JobInfo responses get their ID re-qualified so clients only ever
// see gateway IDs. The suffix comes from the matched route, not the
// request path, and the inner ID is re-escaped on the way out — an ID
// crafted to decode into slashes or query metacharacters addresses
// nothing but a (nonexistent) job of that literal name.
func (g *Gateway) jobProxy(suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g.proxyJob(w, r, suffix)
	}
}

func (g *Gateway) proxyJob(w http.ResponseWriter, r *http.Request, suffix string) {
	shard, inner, err := g.splitJobID(r.PathValue("id"))
	if err != nil {
		obs.WriteError(w, r, http.StatusNotFound, obs.CodeNotFound, err.Error())
		return
	}
	m := g.members[shard]

	u := m.base + "/v1/jobs/" + url.PathEscape(inner) + suffix
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}

	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, nil)
	if err != nil {
		obs.WriteError(w, r, http.StatusInternalServerError, obs.CodeInternal, err.Error())
		return
	}
	req.Header.Set(obs.RequestIDHeader, obs.RequestID(r.Context()))
	g.setTenantHeaders(req.Header, r)
	resp, err := g.httpc.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		m.markDown(err)
		obs.WriteError(w, r, http.StatusBadGateway, obs.CodeUpstream,
			fmt.Sprintf("shard %s unreachable: %v", m.base, err))
		return
	}
	defer resp.Body.Close()
	m.markUp()

	// Status and cancel answer with a JobInfo whose ID must be
	// re-qualified; result and trace bodies carry no member-local IDs
	// and stream through untouched.
	if resp.StatusCode == http.StatusOK && suffix == "" {
		var info service.JobInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			obs.WriteError(w, r, http.StatusBadGateway, obs.CodeUpstream,
				fmt.Sprintf("shard %s: bad response: %v", m.base, err))
			return
		}
		info.ID = jobID(shard, info.ID)
		service.WriteJSON(w, http.StatusOK, info)
		return
	}
	g.copyResponse(w, r, resp)
}

// copyResponse relays a member response: relevant headers, status,
// then the body through io.Copy. Trace bodies arrive sized and keep
// their Content-Length, so the relay never re-frames them. Trace
// bytes moved here count as fallback, and a broken copy is classified
// — client abort vs upstream failure — instead of silently discarded.
// The upstream request carries the client's context, so a client that
// goes away mid-body also cuts the shard read short.
func (g *Gateway) copyResponse(w http.ResponseWriter, r *http.Request, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Content-Length", "X-Nmo-Trace-Md5"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	n, err := io.Copy(w, resp.Body)
	if resp.Header.Get("Content-Type") == "application/octet-stream" {
		g.zc.AddFallback(n)
		g.zc.CountCopyErr(r.Context(), err)
	}
}

// handleStats fans /v1/stats out to every member and merges the
// answers into a FleetStats: summed counters inline (so a plain
// SchedStats decode of a gateway URL still works) plus one row per
// member. The fan-out is live — the smoke tests compare engine-run
// counters across submissions, which cached probe snapshots would
// blur. Members that fail the fan-out are reported unhealthy with no
// Stats row and excluded from the sums.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	fleet := service.FleetStats{Members: make([]service.MemberStats, len(g.members))}
	var wg sync.WaitGroup
	for i, m := range g.members {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), g.probeTimeout)
			defer cancel()
			st, err := m.client.Stats(ctx)
			row := service.MemberStats{Member: m.base, Shard: i}
			switch {
			case err == nil:
				m.markUp()
				row.Healthy = true
				row.Stats = &st
			case r.Context().Err() != nil:
				// The *requester* went away mid-fan-out; every member
				// leg fails with a context error that says nothing
				// about shard health. Don't mark the fleet down over
				// it (nobody reads this response anyway).
				row.Healthy = m.healthy.Load()
				row.Error = err.Error()
			default:
				m.markDown(err)
				row.Error = m.errString()
			}
			fleet.Members[i] = row
		}()
	}
	wg.Wait()
	for _, row := range fleet.Members {
		if row.Stats == nil {
			continue
		}
		st := row.Stats
		fleet.Submitted += st.Submitted
		fleet.Rejected += st.Rejected
		fleet.EngineRuns += st.EngineRuns
		fleet.CacheHits += st.CacheHits
		fleet.Coalesced += st.Coalesced
		fleet.CacheEntries += st.CacheEntries
		fleet.CacheEvictions += st.CacheEvictions
		fleet.CacheBytesMem += st.CacheBytesMem
		fleet.CacheBytesDisk += st.CacheBytesDisk
		fleet.CacheDemotions += st.CacheDemotions
		fleet.CachePromotions += st.CachePromotions
		fleet.Queued += st.Queued
		fleet.Running += st.Running
		fleet.ZcSendfileBytes += st.ZcSendfileBytes
		fleet.ZcFallbackBytes += st.ZcFallbackBytes
		fleet.TraceClientAborts += st.TraceClientAborts
		fleet.TraceServeErrors += st.TraceServeErrors
		fleet.JobPhases = mergePhases(fleet.JobPhases, st.JobPhases)
		fleet.Tenants = mergeTenants(fleet.Tenants, st.Tenants)
	}
	// Uptime is this gateway's own clock — summing member uptimes
	// would produce a meaningless "fleet-seconds" figure.
	fleet.UptimeSec = obs.Uptime()
	// The gateway is a data-plane hop of its own: its relay bytes fold
	// into the same inline counters (shards sendfile, the gateway
	// copies — both visible in one fleet view).
	fleet.ZcFallbackBytes += g.zc.FallbackBytes()
	fleet.TraceClientAborts += g.zc.ClientAborts()
	fleet.TraceServeErrors += g.zc.Errors()
	service.WriteJSON(w, http.StatusOK, fleet)
}

// mergeTenants accumulates one member's per-tenant rows into the
// fleet view, matching by tenant name (the weight is a quota-file
// constant, identical across shards; the counters sum).
func mergeTenants(acc, add []service.TenantStat) []service.TenantStat {
	for _, t := range add {
		found := false
		for i := range acc {
			if acc[i].Tenant == t.Tenant {
				acc[i].Queued += t.Queued
				acc[i].Running += t.Running
				acc[i].InFlight += t.InFlight
				acc[i].Submitted += t.Submitted
				acc[i].EngineRuns += t.EngineRuns
				acc[i].Rejected += t.Rejected
				found = true
				break
			}
		}
		if !found {
			acc = append(acc, t)
		}
	}
	return acc
}

// mergePhases accumulates one member's phase summary into the fleet
// totals, matching rows by phase name so shards running different
// builds (or none) merge cleanly.
func mergePhases(acc, add []service.PhaseStat) []service.PhaseStat {
	for _, p := range add {
		found := false
		for i := range acc {
			if acc[i].Phase == p.Phase {
				acc[i].Count += p.Count
				acc[i].TotalSec += p.TotalSec
				found = true
				break
			}
		}
		if !found {
			acc = append(acc, p)
		}
	}
	return acc
}

// handleHealthz is healthy while at least one shard is: the fleet
// degrades before it dies.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	up := g.healthyCount()
	if up == 0 {
		obs.WriteError(w, r, http.StatusServiceUnavailable, obs.CodeUpstream,
			fmt.Sprintf("no healthy members (%d configured)", len(g.members)))
		return
	}
	fmt.Fprintf(w, "ok (%d/%d members healthy)\n", up, len(g.members))
}
