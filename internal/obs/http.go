package obs

import (
	"io"
	"net/http"
	"sync"
	"time"
)

// Default bucket layouts. Latency spans the fleet's spread: a cache
// hit answers in well under a millisecond, a cold fig8 sweep runs for
// tens of seconds, and a trace download sits in between. Sizes span a
// JSON status line through a multi-hundred-MiB trace blob. Phases use
// the latency layout with a longer tail (queue wait under load).
var (
	LatencyBuckets = []float64{0.001, 0.005, 0.02, 0.1, 0.5, 2.5, 10, 60}
	SizeBuckets    = []float64{512, 8 << 10, 128 << 10, 1 << 20, 16 << 20, 256 << 20}
	PhaseBuckets   = []float64{0.0005, 0.002, 0.01, 0.05, 0.25, 1, 5, 30, 120}
)

// HTTPMetrics instruments handlers: request counts by route and
// status class, one global in-flight gauge, and per-route latency and
// response-size histograms. Routes are fixed strings (the mux
// patterns), registered eagerly at Wrap time so every series exists
// from the first scrape — the hot path never touches the registry.
type HTTPMetrics struct {
	reg      *Registry
	audit    *AuditLog
	inFlight *Gauge

	// Per-tenant series are registered lazily the first time a tenant
	// appears (tenants are authenticated principals, so the label set
	// is bounded by the identity space, not by arbitrary requests).
	// The maps cache instruments so the per-request path is one lookup,
	// not a registry walk.
	tmu          sync.Mutex
	tenantReqs   map[string]*Counter // key: tenant + "\x00" + class
	tenantBytes_ map[string]*Counter // key: tenant + "\x00" + route
}

// NewHTTPMetrics builds the middleware factory. audit may be nil.
func NewHTTPMetrics(reg *Registry, audit *AuditLog) *HTTPMetrics {
	return &HTTPMetrics{
		reg:          reg,
		audit:        audit,
		inFlight:     reg.Gauge("nmo_http_in_flight", "HTTP requests currently being served."),
		tenantReqs:   make(map[string]*Counter),
		tenantBytes_: make(map[string]*Counter),
	}
}

// tenantClass returns the tenant's request counter for one status
// class, registering it on first use.
func (m *HTTPMetrics) tenantClass(tenant, class string) *Counter {
	key := tenant + "\x00" + class
	m.tmu.Lock()
	defer m.tmu.Unlock()
	c := m.tenantReqs[key]
	if c == nil {
		c = m.reg.Counter("nmo_tenant_http_requests_total",
			"HTTP requests served, by tenant and status class.",
			L("tenant", tenant), L("code", class))
		m.tenantReqs[key] = c
	}
	return c
}

// tenantBytes returns the tenant's response-byte counter for one
// route. On the trace route this is exactly "trace bytes served per
// tenant" — the response recorder counts sendfile'd bytes too (its
// ReadFrom seam returns the kernel-moved total).
func (m *HTTPMetrics) tenantBytes(tenant, route string) *Counter {
	key := tenant + "\x00" + route
	m.tmu.Lock()
	defer m.tmu.Unlock()
	c := m.tenantBytes_[key]
	if c == nil {
		c = m.reg.Counter("nmo_tenant_http_response_bytes_total",
			"HTTP response body bytes, by tenant and route.",
			L("tenant", tenant), L("route", route))
		m.tenantBytes_[key] = c
	}
	return c
}

// Audit returns the middleware's audit sink (nil when none).
func (m *HTTPMetrics) Audit() *AuditLog { return m.audit }

// Wrap instruments one route. It also owns the request-ID boundary:
// an inbound X-Nmo-Request-Id is accepted (the gateway already minted
// one), otherwise a fresh ID is minted; either way the ID is placed
// in the request context, echoed on the response, and stamped on the
// audit line.
func (m *HTTPMetrics) Wrap(route string, next http.Handler) http.Handler {
	classes := [5]*Counter{}
	for i := range classes {
		classes[i] = m.reg.Counter("nmo_http_requests_total",
			"HTTP requests served, by route and status class.",
			L("route", route), L("code", string('1'+byte(i))+"xx"))
	}
	lat := m.reg.Histogram("nmo_http_request_seconds",
		"HTTP request latency by route.", LatencyBuckets, L("route", route))
	size := m.reg.Histogram("nmo_http_response_bytes",
		"HTTP response body bytes by route.", SizeBuckets, L("route", route))

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = NewRequestID()
		}
		info := &ReqInfo{}
		r = r.WithContext(WithReqInfo(WithRequestID(r.Context(), id), info))
		w.Header().Set(RequestIDHeader, id)

		rec := responseRecorder{w: w, status: http.StatusOK}
		start := time.Now()
		m.inFlight.Inc()
		defer func() {
			m.inFlight.Dec()
			d := time.Since(start)
			cls := rec.status / 100
			if cls < 1 || cls > 5 {
				cls = 5
			}
			classes[cls-1].Inc()
			lat.Observe(d.Seconds())
			size.Observe(float64(rec.bytes))
			// Early-middleware rejects (auth, quota) reach here with
			// the real status and code: the auth layer runs inside this
			// wrapper, and WriteError stamped the code on the holder.
			if info.Tenant != "" {
				m.tenantClass(info.Tenant, string('1'+byte(cls-1))+"xx").Inc()
				m.tenantBytes(info.Tenant, route).Add(uint64(rec.bytes))
			}
			m.audit.Log(Event{
				Kind: "http", ReqID: id, Method: r.Method, Path: r.URL.Path,
				Status: rec.status, Bytes: rec.bytes,
				DurMs:  float64(d.Nanoseconds()) / 1e6,
				Tenant: info.Tenant, Code: info.ErrCode,
			})
		}()
		next.ServeHTTP(&rec, r)
	})
}

// responseRecorder captures status and body bytes while staying
// transparent to the data plane: it forwards Flush (the trace
// handler's header flush) and ReadFrom (the seam net/http's sendfile
// hangs off — wrapping it away would silently turn every spill-file
// extent into a buffered copy).
type responseRecorder struct {
	w      http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (r *responseRecorder) Header() http.Header { return r.w.Header() }

func (r *responseRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.w.WriteHeader(code)
}

func (r *responseRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	n, err := r.w.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *responseRecorder) Flush() {
	if fl, ok := r.w.(http.Flusher); ok {
		fl.Flush()
	}
}

// ReadFrom keeps io.Copy offload-eligible: the source reaches the
// underlying ResponseWriter's ReaderFrom intact, and net/http hands an
// *io.LimitedReader over an *os.File to the TCP conn, which sends it
// with sendfile(2). Without a ReaderFrom seam here, the instrumented
// handler would copy through a buffer instead.
func (r *responseRecorder) ReadFrom(src io.Reader) (int64, error) {
	r.wrote = true
	if rf, ok := r.w.(io.ReaderFrom); ok {
		n, err := rf.ReadFrom(src)
		r.bytes += n
		return n, err
	}
	n, err := io.Copy(r.w, src)
	r.bytes += n
	return n, err
}
