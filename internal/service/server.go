package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/trace"
)

// Server exposes a Scheduler over HTTP. Routes (Go 1.22 pattern mux):
//
//	POST   /v1/jobs              submit a JobSpec; 200 JobInfo
//	GET    /v1/jobs/{id}         job status; 200 JobInfo
//	DELETE /v1/jobs/{id}         cancel; 200 JobInfo
//	GET    /v1/jobs/{id}/result  finished job's ResultDoc
//	GET    /v1/jobs/{id}/trace   v2/v2.1 trace stream;
//	                             ?scenario=name|index selects the blob,
//	                             ?from/?to (ns) and ?core push down to
//	                             the block index server-side
//	GET    /v1/stats             SchedStats
//	GET    /v1/healthz           200 "ok"
//
// Every trace response is one span plan: sized, with the stream's
// rolling MD5 in X-Nmo-Trace-Md5. Unfiltered it is the stored blob
// verbatim — byte-identical to the v2 file the same scenario writes
// locally. Filtered it is a fresh v2 stream (own index, own checksum)
// planned through the block-skip push-down.
//
// Job routes answer only the tenant that submitted the job: any other
// tenant gets the same not_found envelope as an unknown ID, so a job's
// existence does not leak across tenants.
//
// Every non-2xx response is the standard JSON error envelope
// ({"error": {"code", "message", "request_id"}}); /v1/healthz,
// /v1/stats, and /metrics are never behind auth (they are the
// read-only operational surface probes and dashboards live on), while
// the job routes run behind the configured auth middleware.
type Server struct {
	sched  *Scheduler
	router *obs.Router
	zc     *Counters
	m      *Metrics
	auth   *auth.Middleware
}

// ServerOption customizes NewServer.
type ServerOption func(*Server)

// WithAuth mounts an auth middleware on the job routes (default: a
// ModeNone middleware — dev-header tenancy, no credentials).
func WithAuth(a *auth.Middleware) ServerOption {
	return func(s *Server) { s.auth = a }
}

// NewServer wires a scheduler into an HTTP handler. Every route runs
// behind the scheduler's metrics middleware (request counts, latency
// and size histograms, request-ID boundary, audit lines), and the
// backing registry is exposed at GET /metrics — including this
// server's trace data-plane counters.
func NewServer(sched *Scheduler, opts ...ServerOption) *Server {
	s := &Server{sched: sched, zc: new(Counters), m: sched.Metrics()}
	for _, o := range opts {
		o(s)
	}
	if s.auth == nil {
		// ModeNone with the scheduler's quota table: tenancy via dev
		// header, rate limits still enforced per claimed tenant.
		s.auth, _ = auth.NewMiddleware(auth.Config{Mode: auth.ModeNone, Quotas: sched.cfg.Quotas})
	}
	RegisterDataPlane(s.m.Reg, s.zc)
	rt := obs.NewRouter(s.m.HTTP)
	protect, limit := s.auth.Protect, s.auth.LimitSubmit
	rt.HandleFunc("POST", "/v1/jobs", s.handleSubmit, protect, limit)
	rt.HandleFunc("GET", "/v1/jobs/{id}", s.handleStatus, protect)
	rt.HandleFunc("DELETE", "/v1/jobs/{id}", s.handleCancel, protect)
	rt.HandleFunc("GET", "/v1/jobs/{id}/result", s.handleResult, protect)
	rt.HandleFunc("GET", "/v1/jobs/{id}/trace", s.handleTrace, protect)
	rt.HandleFunc("GET", "/v1/stats", s.handleStats)
	rt.HandleFunc("GET", "/v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	rt.Handle("GET", "/metrics", obs.Handler(s.m.Reg))
	s.router = rt
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.router.ServeHTTP(w, r)
}

// ZeroCopy returns the server's data-plane counters, the ones
// /v1/stats and /metrics report: file-extent (sendfile) and
// user-space (fallback) trace body bytes, which sum to the trace bytes
// served, plus the client-abort and serve-error counts.
func (s *Server) ZeroCopy() *Counters { return s.zc }

// MaxSpecBytes bounds the POST /v1/jobs body (a 256-scenario sweep
// spec is a few tens of KB; a megabyte is generous). Exported so the
// gateway enforces the identical bound — a spec must never be
// accepted by one tier and rejected by the next.
const MaxSpecBytes = 1 << 20

// submitErr maps a Submit failure onto its envelope status and code.
func submitErr(err error) (int, string) {
	switch err {
	case ErrQueueFull:
		return http.StatusTooManyRequests, obs.CodeQueueFull
	case ErrQuotaExceeded:
		return http.StatusTooManyRequests, obs.CodeQuotaExceeded
	case errShutdown:
		return http.StatusServiceUnavailable, obs.CodeShutdown
	}
	return http.StatusBadRequest, obs.CodeBadSpec
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, obs.CodeBadSpec, "bad job spec: "+err.Error())
		return
	}
	job, err := s.sched.SubmitTenant(spec, obs.RequestID(r.Context()), auth.TenantFrom(r.Context()))
	if err != nil {
		status, code := submitErr(err)
		obs.WriteError(w, r, status, code, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, job.Info())
}

// job resolves the {id} path value to a job of the request's tenant,
// writing the 404 itself on a miss. Another tenant's job is a miss.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.sched.Get(id)
	if !ok || j.Tenant != auth.TenantFrom(r.Context()) {
		obs.WriteError(w, r, http.StatusNotFound, obs.CodeNotFound, fmt.Sprintf("unknown job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Info())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.sched.Cancel(j.ID); err != nil {
		obs.WriteError(w, r, http.StatusInternalServerError, obs.CodeInternal, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, j.Info())
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.sched.Stats()
	st.ZcSendfileBytes = s.zc.SendfileBytes()
	st.ZcFallbackBytes = s.zc.FallbackBytes()
	st.TraceClientAborts = s.zc.ClientAborts()
	st.TraceServeErrors = s.zc.Errors()
	WriteJSON(w, http.StatusOK, st)
}

// artifacts resolves a job's artifacts, mapping unfinished and failed
// jobs to 409/the failure. Results are served only for done jobs —
// clients poll status first (or watch the submission response's state
// for cache hits).
func artifacts(w http.ResponseWriter, r *http.Request, j *Job) (*JobArtifacts, bool) {
	info := j.Info()
	switch info.State {
	case StateDone:
		return j.Artifacts(), true
	case StateFailed, StateCanceled:
		obs.WriteError(w, r, http.StatusConflict, obs.CodeConflict,
			fmt.Sprintf("job %s is %s: %s", j.ID, info.State, info.Error))
	default:
		obs.WriteError(w, r, http.StatusConflict, obs.CodeConflict,
			fmt.Sprintf("job %s is %s; poll until done", j.ID, info.State))
	}
	return nil, false
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	art, ok := artifacts(w, r, j)
	if !ok {
		return
	}
	doc := art.Doc
	doc.Key = j.Key
	WriteJSON(w, http.StatusOK, doc)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	art, ok := artifacts(w, r, j)
	if !ok {
		return
	}
	blob, ok := art.Trace(r.URL.Query().Get("scenario"))
	if !ok || blob.Size() == 0 {
		obs.WriteError(w, r, http.StatusNotFound, obs.CodeNotFound,
			fmt.Sprintf("job %s has no trace for scenario %q (sampling disabled, or unknown name)",
				j.ID, r.URL.Query().Get("scenario")))
		return
	}

	lo, hi, core, filtered, err := traceFilter(r)
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, obs.CodeBadRequest, err.Error())
		return
	}

	// Pin the blob's current backing for this request: resident bytes,
	// or an open descriptor on its spill file (which keeps serving even
	// if the cache deletes the file mid-response). A missing file means
	// the cache evicted the entry; any other open failure (EMFILE, a
	// broken spill directory) is the server's.
	data, f, err := blob.open()
	if errors.Is(err, os.ErrNotExist) {
		obs.WriteError(w, r, http.StatusNotFound, obs.CodeNotFound,
			fmt.Sprintf("job %s: trace evicted from cache", j.ID))
		return
	}
	if err != nil {
		obs.WriteError(w, r, http.StatusInternalServerError, obs.CodeInternal,
			fmt.Sprintf("job %s: open trace: %v", j.ID, err))
		return
	}
	if f != nil {
		defer f.Close()
	}
	plan, err := tracePlan(blob, data, f, lo, hi, core, filtered)
	if err != nil {
		obs.WriteError(w, r, http.StatusInternalServerError, obs.CodeInternal, err.Error())
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Nmo-Trace-Md5", hex.EncodeToString(plan.MD5[:]))
	w.Header().Set("Content-Length", strconv.FormatInt(plan.Size, 10))
	w.WriteHeader(http.StatusOK)
	// The GET route also answers HEAD: same headers, no body. net/http
	// would swallow the body, but the copy would still read the blob
	// and credit bytes nobody received.
	if r.Method == http.MethodHead {
		return
	}
	s.zc.CountCopyErr(r.Context(), s.servePlan(w, plan, data, f))
}

// tracePlan describes one trace response as a span plan. Unfiltered,
// it is the stored blob as a single extent with the blob's MD5 —
// byte-identical to the file a local run writes. Filtered, it is
// RestreamPlanExact over the blob's resident or spilled bytes: whole
// blocks as extents of the blob, straddlers and everything a core
// filter keeps as literal bytes.
func tracePlan(blob *TraceBlob, data []byte, f *os.File, lo, hi uint64, core int, filtered bool) (*trace.RestreamPlan, error) {
	if !filtered {
		return &trace.RestreamPlan{
			Segments: []trace.PlanSegment{{Len: blob.Size()}},
			Size:     blob.Size(),
			MD5:      blob.MD5,
		}, nil
	}
	var src io.ReadSeeker = bytes.NewReader(data)
	if f != nil {
		src = io.NewSectionReader(f, 0, blob.Size())
	}
	rd, err := trace.OpenV2(src)
	if err != nil {
		return nil, err
	}
	return trace.RestreamPlanExact(rd, lo, hi, core)
}

// servePlan writes a span plan's body: literals with Write, extents
// straight out of the resident slice (memory tier) or off the spill
// file (file tier). A file extent is one *io.LimitedReader over the
// seeked *os.File; once the header is on the wire, net/http's
// response.ReadFrom hands it to the TCP conn, which sends it with
// sendfile(2). Extent bytes are credited as sendfile, everything else
// as fallback, so the two sum to the trace bytes served.
func (s *Server) servePlan(w http.ResponseWriter, plan *trace.RestreamPlan, data []byte, f *os.File) error {
	if f != nil {
		// Flush the header now: until it is on the wire, net/http's
		// ReadFrom copies a 512-byte sniff prefix of the first extent
		// through a buffer before it hands the rest to the conn.
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
	}
	for _, seg := range plan.Segments {
		if seg.Data == nil && f != nil {
			if _, err := f.Seek(seg.SrcOff, io.SeekStart); err != nil {
				return err
			}
			n, err := io.Copy(w, &io.LimitedReader{R: f, N: seg.Len})
			s.zc.AddSendfile(n)
			if err == nil && n < seg.Len {
				err = io.ErrUnexpectedEOF // spill file shorter than its plan
			}
			if err != nil {
				return err
			}
			continue
		}
		p := seg.Data
		if p == nil {
			p = data[seg.SrcOff : seg.SrcOff+seg.Len]
		}
		n, err := w.Write(p)
		s.zc.AddFallback(int64(n))
		if err != nil {
			return err
		}
	}
	return nil
}

// traceFilter parses ?from/?to/?core into the canonical trace
// predicate: timestamps in [lo, hi) (0 = unbounded) and an exact core
// (-1 = all). filtered reports whether any filter was requested —
// false selects the serve-verbatim fast path.
func traceFilter(r *http.Request) (lo, hi uint64, core int, filtered bool, err error) {
	q := r.URL.Query()
	core = -1
	if v := q.Get("from"); v != "" {
		if lo, err = strconv.ParseUint(v, 10, 64); err != nil {
			return 0, 0, -1, false, fmt.Errorf("bad from %q", v)
		}
	}
	if v := q.Get("to"); v != "" {
		if hi, err = strconv.ParseUint(v, 10, 64); err != nil {
			return 0, 0, -1, false, fmt.Errorf("bad to %q", v)
		}
	}
	if v := q.Get("core"); v != "" {
		c, err := strconv.Atoi(v)
		if err != nil || c < 0 {
			return 0, 0, -1, false, fmt.Errorf("bad core %q", v)
		}
		core = c
	}
	return lo, hi, core, lo != 0 || hi != 0 || core >= 0, nil
}

// WriteJSON is the success-body encoding helper, shared with the
// gateway so every tier answers with the same JSON shapes. Errors go
// through obs.WriteError — the one envelope every tier speaks.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
