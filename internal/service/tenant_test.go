package service

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
)

// defaultQueue returns the default tenant's queue; callers hold s.mu.
// The single-tenant white-box tests read it where they used to read
// the (pre-multi-tenant) global queue — same jobs, same order.
func defaultQueue(s *Scheduler) []*Job {
	if tq := s.tqs[auth.DefaultTenant]; tq != nil {
		return tq.jobs
	}
	return nil
}

// enqueueRaw builds a minimal queued job and places it directly via
// enqueueLocked — no cache, no cond.Signal, so the worker pool never
// wakes and pop order can be observed deterministically.
func enqueueRaw(s *Scheduler, tenant string, pri int) *Job {
	s.seq++
	j := &Job{ID: fmt.Sprintf("%s-%d", tenant, s.seq), Tenant: tenant,
		Priority: pri, seq: s.seq, state: StateQueued}
	s.enqueueLocked(j)
	return j
}

// popAll drains the DRR rotation, recording each pop's tenant.
func popAll(s *Scheduler) []string {
	var got []string
	for {
		j := s.popLocked()
		if j == nil {
			return got
		}
		got = append(got, j.Tenant)
	}
}

// TestDRRFairShareOrder pins the weighted fair-share policy exactly:
// two backlogged tenants at weights 3:1 are served in the repeating
// pattern A,A,A,B — engine runs converge to 3:1 under saturation by
// construction.
func TestDRRFairShareOrder(t *testing.T) {
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{
		"alpha": {Weight: 3},
		"beta":  {Weight: 1},
	}}
	s := newTestScheduler(t, SchedConfig{Workers: 1, Quotas: quotas})

	s.mu.Lock()
	for i := 0; i < 9; i++ {
		enqueueRaw(s, "alpha", 0)
	}
	for i := 0; i < 3; i++ {
		enqueueRaw(s, "beta", 0)
	}
	got := popAll(s)
	s.mu.Unlock()

	want := []string{
		"alpha", "alpha", "alpha", "beta",
		"alpha", "alpha", "alpha", "beta",
		"alpha", "alpha", "alpha", "beta",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DRR pop order = %v, want %v", got, want)
	}
}

// TestDRRSingleTenantOrderUnchanged: with one tenant the DRR machinery
// must degenerate to the pre-multi-tenant policy — the head job in
// (priority desc, seq asc) order — so single-tenant scheduling is
// bit-identical to the old scheduler.
func TestDRRSingleTenantOrderUnchanged(t *testing.T) {
	s := newTestScheduler(t, SchedConfig{Workers: 1})
	s.mu.Lock()
	j1 := enqueueRaw(s, auth.DefaultTenant, 0)
	j2 := enqueueRaw(s, auth.DefaultTenant, 5)
	j3 := enqueueRaw(s, auth.DefaultTenant, 5)
	j4 := enqueueRaw(s, auth.DefaultTenant, 1)
	var got []string
	for {
		j := s.popLocked()
		if j == nil {
			break
		}
		got = append(got, j.ID)
	}
	s.mu.Unlock()
	want := []string{j2.ID, j3.ID, j4.ID, j1.ID} // priority desc, FIFO within
	if !reflect.DeepEqual(got, want) {
		t.Errorf("single-tenant pop order = %v, want %v", got, want)
	}
}

// TestDRRIdleTenantNoCreditBanking: a tenant that goes idle and comes
// back does not carry saved-up credit — fairness is over backlogged
// tenants only.
func TestDRRIdleTenantNoCreditBanking(t *testing.T) {
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{
		"alpha": {Weight: 3},
		"beta":  {Weight: 1},
	}}
	s := newTestScheduler(t, SchedConfig{Workers: 1, Quotas: quotas})
	s.mu.Lock()
	enqueueRaw(s, "alpha", 0)
	if got := popAll(s); !reflect.DeepEqual(got, []string{"alpha"}) {
		t.Fatalf("warm-up pop = %v", got)
	}
	// alpha drained mid-round (credit 2 unspent). Re-backlog both:
	// the fresh round must still serve 3:1, not 5:1.
	for i := 0; i < 6; i++ {
		enqueueRaw(s, "alpha", 0)
	}
	for i := 0; i < 2; i++ {
		enqueueRaw(s, "beta", 0)
	}
	got := popAll(s)
	s.mu.Unlock()
	want := []string{"alpha", "alpha", "alpha", "beta", "alpha", "alpha", "alpha", "beta"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-idle pop order = %v, want %v", got, want)
	}
}

// TestTenantMaxInFlight: a tenant at max_in_flight 1 has its second
// concurrent leader rejected with ErrQuotaExceeded, and regains the
// slot once the first job completes. Other tenants are unaffected.
func TestTenantMaxInFlight(t *testing.T) {
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{
		"tiny": {MaxInFlight: 1},
	}}
	s := newTestScheduler(t, SchedConfig{Workers: 1, Quotas: quotas})

	first, err := s.SubmitTenant(quickJob(800), "", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitTenant(quickJob(801), "", "tiny"); err != ErrQuotaExceeded {
		t.Fatalf("second in-flight submission: err = %v, want ErrQuotaExceeded", err)
	}
	// Other tenants still admit (the quota is per tenant, not global).
	other, err := s.SubmitTenant(quickJob(802), "", "roomy")
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}

	// An identical resubmission is a cache hit/coalesce — free, never
	// quota-rejected (it costs no engine time).
	dup, err := s.SubmitTenant(quickJob(800), "", "tiny")
	if err != nil {
		t.Fatalf("coalesced duplicate rejected: %v", err)
	}

	waitDone(t, first)
	// The quota unit is returned by the worker just after the job
	// turns terminal; poll the tiny remainder.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := s.SubmitTenant(quickJob(803), "", "tiny")
		if err == nil {
			waitDone(t, j)
			break
		}
		if err != ErrQuotaExceeded {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("quota never released after job completion")
		}
		time.Sleep(time.Millisecond)
	}
	waitDone(t, other)
	waitDone(t, dup)
}

// TestTenantStatsRows: per-tenant stats report submissions, engine
// runs, and the configured weight per tenant, and JobInfo carries the
// tenant.
func TestTenantStatsRows(t *testing.T) {
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{
		"alpha": {Weight: 3},
	}}
	s := newTestScheduler(t, SchedConfig{Workers: 2, Quotas: quotas})

	ja, err := s.SubmitTenant(quickJob(810), "", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	jb, err := s.SubmitTenant(quickJob(811), "", "beta")
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, ja); info.Tenant != "alpha" {
		t.Errorf("JobInfo.Tenant = %q, want alpha", info.Tenant)
	}
	waitDone(t, jb)

	rows := map[string]TenantStat{}
	for _, row := range s.Stats().Tenants {
		rows[row.Tenant] = row
	}
	a, ok := rows["alpha"]
	if !ok {
		t.Fatalf("no alpha row in %v", rows)
	}
	if a.Weight != 3 || a.Submitted != 1 || a.EngineRuns != 1 {
		t.Errorf("alpha row = %+v, want weight 3, submitted 1, engine runs 1", a)
	}
	b, ok := rows["beta"]
	if !ok {
		t.Fatalf("no beta row in %v", rows)
	}
	if b.Weight != 1 || b.Submitted != 1 {
		t.Errorf("beta row = %+v, want weight 1, submitted 1", b)
	}
}

// TestTenantQuotaReleasedOnCancel: canceling a queued leader returns
// its in-flight unit immediately.
func TestTenantQuotaReleasedOnCancel(t *testing.T) {
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{
		"tiny": {MaxInFlight: 1},
	}}
	s := newTestScheduler(t, SchedConfig{Workers: 1, Quotas: quotas})

	// Plug the only worker with another tenant's job so tiny's leader
	// stays queued.
	plug, err := s.SubmitTenant(quickJob(820), "", "plug")
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.SubmitTenant(quickJob(821), "", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitTenant(quickJob(822), "", "tiny"); err != ErrQuotaExceeded {
		t.Fatalf("quota not enforced while queued: err = %v", err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := s.SubmitTenant(quickJob(823), "", "tiny")
		if err == nil {
			waitDone(t, j)
			break
		}
		if err != ErrQuotaExceeded {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("quota never released after cancel")
		}
		time.Sleep(time.Millisecond)
	}
	waitDone(t, plug)
}

// TestJobRoutesTenantIsolated: a job is visible only to the tenant
// that submitted it. Every by-ID route answers another tenant with the
// exact not_found envelope an unknown ID gets, so the job's existence
// does not leak, and the owner keeps full access.
func TestJobRoutesTenantIsolated(t *testing.T) {
	srv, sched, _ := newTestServer(t, SchedConfig{Workers: 1})
	j, err := sched.SubmitTenant(quickJob(61), "", "alice")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	do := func(method, path, tenant string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
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
	routes := []struct{ method, suffix string }{
		{"GET", ""}, {"GET", "/result"}, {"GET", "/trace"}, {"DELETE", ""},
	}
	for _, rt := range routes {
		for _, tenant := range []string{"bob", ""} { // "" = default tenant
			resp := do(rt.method, "/v1/jobs/"+j.ID+rt.suffix, tenant)
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s as %q = %d, want 404", rt.method, rt.suffix, tenant, resp.StatusCode)
			}
			env := decodeEnvelope(t, resp)
			if env.Code != obs.CodeNotFound || env.Message != fmt.Sprintf("unknown job %q", j.ID) {
				t.Errorf("%s %s as %q: envelope %+v differs from an unknown ID's", rt.method, rt.suffix, tenant, env)
			}
		}
	}
	for _, rt := range routes {
		resp := do(rt.method, "/v1/jobs/"+j.ID+rt.suffix, "alice")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("owner %s %s = %d, want 200", rt.method, rt.suffix, resp.StatusCode)
		}
	}
	if st := j.Info().State; st != StateDone {
		t.Errorf("job state %s after cross-tenant DELETE, want done", st)
	}
}
