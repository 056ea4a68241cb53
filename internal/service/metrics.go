package service

import (
	"context"
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nmo/internal/obs"
)

// JobPhaseNames are the lifecycle phases every job's timing breakdown
// covers, in execution order: content-address resolution + cache
// admission, the wait for a scheduler worker, the engine batch, the
// result digestion, and the cache fill (which may spill to disk).
// Each completed phase is observed into the nmo_job_phase_seconds
// histogram and recorded on the job itself (GET /v1/jobs/{id}).
var JobPhaseNames = []string{"cache_lookup", "queue_wait", "run", "digest", "spill"}

// Metrics is the daemon's observability bundle: one obs.Registry that
// backs both GET /metrics and the counter fields of GET /v1/stats —
// the same atomic words rendered two ways, so the views cannot drift
// — plus the HTTP middleware and the optional JSONL audit sink.
//
// The scheduler's former ad-hoc atomics (submitted/rejected/engine
// runs) live here as registry-owned counters; the cache tiers and the
// trace data plane's Counters join as func-backed metrics read at scrape
// time from their existing atomics.
type Metrics struct {
	Reg   *obs.Registry
	HTTP  *obs.HTTPMetrics
	Audit *obs.AuditLog

	Submitted  *obs.Counter
	Rejected   *obs.Counter
	EngineRuns *obs.Counter

	phases map[string]*obs.Histogram

	// Per-tenant instruments, registered lazily the first time a
	// tenant submits. Tenants are authenticated principals, so the
	// label cardinality is bounded by the identity space. The global
	// families above stay label-free — dashboards and CI greps keyed
	// on them are untouched; the tenant dimension is new families.
	tmu     sync.Mutex
	tenants map[string]*TenantMetrics
}

// TenantMetrics is one tenant's instrument set.
type TenantMetrics struct {
	Submitted  *obs.Counter
	Rejected   *obs.Counter
	EngineRuns *obs.Counter
	QueueWait  *obs.Histogram
}

// NewMetrics builds a registry pre-populated with the daemon's job
// counters, phase histograms, and build-info metrics. audit may be
// nil (no audit sink).
func NewMetrics(audit *obs.AuditLog) *Metrics {
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)
	m := &Metrics{
		Reg:   reg,
		HTTP:  obs.NewHTTPMetrics(reg, audit),
		Audit: audit,
		Submitted: reg.Counter("nmo_jobs_submitted_total",
			"Job submissions admitted (cache hits and coalesced included)."),
		Rejected: reg.Counter("nmo_jobs_rejected_total",
			"Job submissions rejected (bad spec, queue full, shutting down)."),
		EngineRuns: reg.Counter("nmo_engine_runs_total",
			"Engine batch executions — what the content-addressed cache deduplicates."),
		phases:  make(map[string]*obs.Histogram, len(JobPhaseNames)),
		tenants: make(map[string]*TenantMetrics),
	}
	for _, p := range JobPhaseNames {
		m.phases[p] = reg.Histogram("nmo_job_phase_seconds",
			"Job lifecycle phase durations.", obs.PhaseBuckets, obs.L("phase", p))
	}
	return m
}

// Tenant returns (registering on first use) the tenant's instrument
// set. The hot path after the first submission is one map lookup
// under a short mutex.
func (m *Metrics) Tenant(tenant string) *TenantMetrics {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	tm := m.tenants[tenant]
	if tm == nil {
		l := obs.L("tenant", tenant)
		tm = &TenantMetrics{
			Submitted: m.Reg.Counter("nmo_tenant_jobs_submitted_total",
				"Job submissions admitted, by tenant.", l),
			Rejected: m.Reg.Counter("nmo_tenant_jobs_rejected_total",
				"Job submissions rejected, by tenant.", l),
			EngineRuns: m.Reg.Counter("nmo_tenant_engine_runs_total",
				"Engine batch executions, by tenant.", l),
			QueueWait: m.Reg.Histogram("nmo_tenant_queue_wait_seconds",
				"Queue wait by tenant — the fairness signal.", obs.PhaseBuckets, l),
		}
		m.tenants[tenant] = tm
	}
	return tm
}

// TenantNames lists tenants that have instruments, sorted.
func (m *Metrics) TenantNames() []string {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	names := make([]string, 0, len(m.tenants))
	for t := range m.tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	return names
}

// ObservePhase records one completed job phase into its histogram.
func (m *Metrics) ObservePhase(phase string, d time.Duration) {
	if h := m.phases[phase]; h != nil {
		h.Observe(d.Seconds())
	}
}

// PhaseStats summarizes the phase histograms for /v1/stats and
// `nmostat -stats`: per-phase observation count and total seconds (so
// a mean is one division away), in JobPhaseNames order.
func (m *Metrics) PhaseStats() []PhaseStat {
	out := make([]PhaseStat, 0, len(JobPhaseNames))
	for _, p := range JobPhaseNames {
		h := m.phases[p]
		out = append(out, PhaseStat{Phase: p, Count: h.Count(), TotalSec: h.Sum()})
	}
	return out
}

// Counters is the trace data plane's byte accounting, kept by a
// daemon's HTTP handlers. Sendfile bytes are spill-file extents handed
// to net/http as a sendfile-eligible file range; fallback bytes are
// written from user space (memory-tier blobs, plan literals, the
// gateway relay). Terminal copy outcomes split into client aborts vs
// local/upstream errors. All methods are nil-safe so plumbing can stay
// optional.
type Counters struct {
	sendfile atomic.Int64
	fallback atomic.Int64
	aborts   atomic.Uint64
	errors   atomic.Uint64
}

// AddSendfile credits n spill-file extent bytes.
func (c *Counters) AddSendfile(n int64) {
	if c != nil && n > 0 {
		c.sendfile.Add(n)
	}
}

// AddFallback credits n bytes written from user space.
func (c *Counters) AddFallback(n int64) {
	if c != nil && n > 0 {
		c.fallback.Add(n)
	}
}

// NoteAbort records a body copy cut short by the client going away.
func (c *Counters) NoteAbort() {
	if c != nil {
		c.aborts.Add(1)
	}
}

// NoteError records a body copy broken by a disk or upstream failure.
func (c *Counters) NoteError() {
	if c != nil {
		c.errors.Add(1)
	}
}

// SendfileBytes returns the sendfile byte total.
func (c *Counters) SendfileBytes() int64 { return c.sendfile.Load() }

// FallbackBytes returns the user-space byte total.
func (c *Counters) FallbackBytes() int64 { return c.fallback.Load() }

// ClientAborts returns the client-abort count.
func (c *Counters) ClientAborts() uint64 { return c.aborts.Load() }

// Errors returns the disk/upstream failure count.
func (c *Counters) Errors() uint64 { return c.errors.Load() }

// CountCopyErr classifies and counts a body-copy error: a canceled
// request context, EPIPE, ECONNRESET, or a closed local conn means the
// client went away (an abort, not a server problem); anything else is
// a disk or upstream failure. A nil err counts nothing.
func (c *Counters) CountCopyErr(ctx context.Context, err error) {
	if err == nil {
		return
	}
	if isClientAbort(ctx, err) {
		c.NoteAbort()
	} else {
		c.NoteError()
	}
}

// isClientAbort reports whether a response-body copy error means the
// client disconnected rather than the server failing to produce the
// bytes.
func isClientAbort(ctx context.Context, err error) bool {
	if ctx != nil && ctx.Err() != nil {
		return true
	}
	return errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, net.ErrClosed)
}

// RegisterDataPlane folds a Counters into a registry as
// func-backed metrics: the byte paths of the trace data plane (they
// sum to total trace bytes served) and the terminal copy outcome
// classification. The splice path no longer exists and always reads
// 0; the series stays so dashboards keep their shape. Shared by the
// shard server and the gateway — each tier registers its own counters
// into its own registry.
func RegisterDataPlane(reg *obs.Registry, zc *Counters) {
	reg.CounterFunc("nmo_zc_bytes_total",
		"Trace body bytes moved, by data-plane path (sendfile/splice/fallback).",
		func() float64 { return float64(zc.SendfileBytes()) }, obs.L("path", "sendfile"))
	reg.CounterFunc("nmo_zc_bytes_total", "",
		func() float64 { return 0 }, obs.L("path", "splice"))
	reg.CounterFunc("nmo_zc_bytes_total", "",
		func() float64 { return float64(zc.FallbackBytes()) }, obs.L("path", "fallback"))
	reg.CounterFunc("nmo_trace_client_aborts_total",
		"Trace serves cut short by the client going away.",
		func() float64 { return float64(zc.ClientAborts()) })
	reg.CounterFunc("nmo_trace_serve_errors_total",
		"Trace serves broken by a disk or upstream failure.",
		func() float64 { return float64(zc.Errors()) })
}
