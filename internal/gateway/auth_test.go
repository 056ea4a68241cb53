package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
	"nmo/internal/service"
)

// newAuthFleet builds n shards and a gateway that all share one HMAC
// key: the gateway terminates end-user JWTs, the shards run in jwt
// mode too and trust only the gateway's signed internal header.
func newAuthFleet(t *testing.T, n int, quotas *auth.Quotas) (*fleet, []byte) {
	t.Helper()
	key := []byte("fleet-shared-hmac-key-for-tests!")
	f := &fleet{}
	members := make([]string, n)
	for i := 0; i < n; i++ {
		sched := service.NewScheduler(service.SchedConfig{Workers: 2, Quotas: quotas}, nil)
		t.Cleanup(sched.Close)
		mw, err := auth.NewMiddleware(auth.Config{Mode: auth.ModeJWT, Key: key, Quotas: quotas})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(service.NewServer(sched, service.WithAuth(mw)))
		t.Cleanup(srv.Close)
		f.scheds = append(f.scheds, sched)
		f.shards = append(f.shards, srv)
		f.clients = append(f.clients, service.NewClient(srv.URL))
		members[i] = srv.URL
	}
	gw, err := New(Config{
		Members:    members,
		ProbeEvery: 100 * time.Millisecond,
		Auth:       auth.Config{Mode: auth.ModeJWT, Key: key, Quotas: quotas},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	f.gw = gw
	f.front = httptest.NewServer(gw)
	t.Cleanup(f.front.Close)
	f.client = service.NewClient(f.front.URL)
	return f, key
}

// TestGatewayJWTAuth drives the authenticated fleet end to end: 401
// envelope without a token, full job lifecycle with one, the tenant
// principal threaded gateway→shard into the job record, per-tenant
// series in the gateway's /metrics, and the open operational surface.
func TestGatewayJWTAuth(t *testing.T) {
	f, key := newAuthFleet(t, 2, nil)
	ctx := context.Background()

	// No token: 401 with the unauthorized envelope on every job route.
	for _, probe := range []struct{ method, path string }{
		{"POST", "/v1/jobs"},
		{"GET", "/v1/jobs/s0-jx"},
		{"GET", "/v1/jobs/s0-jx/result"},
		{"GET", "/v1/jobs/s0-jx/trace"},
		{"DELETE", "/v1/jobs/s0-jx"},
	} {
		req, err := http.NewRequest(probe.method, f.front.URL+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s %s = %d, want 401", probe.method, probe.path, resp.StatusCode)
		}
		var env struct {
			Error *obs.APIError `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil ||
			env.Error.Code != obs.CodeUnauthorized || env.Error.RequestID == "" {
			t.Errorf("%s %s body %q is not the unauthorized envelope", probe.method, probe.path, body)
		}
	}

	// The client surfaces the typed error.
	if _, err := f.client.Submit(ctx, spec(500)); !errors.Is(err, &service.APIError{Code: obs.CodeUnauthorized}) {
		t.Fatalf("tokenless submit err = %v, want unauthorized", err)
	}

	// A forged token (wrong key) is rejected too.
	forged, err := auth.SignHS256([]byte("not-the-fleet-key"), auth.Claims{Tenant: "ops"})
	if err != nil {
		t.Fatal(err)
	}
	f.client.Token = forged
	if _, err := f.client.Submit(ctx, spec(500)); !errors.Is(err, &service.APIError{Code: obs.CodeUnauthorized}) {
		t.Fatalf("forged-token submit err = %v, want unauthorized", err)
	}

	// With a valid token the full lifecycle works and the job lands on
	// the shard recorded under the token's tenant — the principal
	// crossed the gateway→shard hop via the signed header.
	tok, err := auth.SignHS256(key, auth.Claims{Tenant: "ops", Exp: time.Now().Add(time.Hour).Unix()})
	if err != nil {
		t.Fatal(err)
	}
	f.client.Token = tok
	info := submitWait(t, f.client, spec(500))
	if info.Tenant != "ops" {
		t.Errorf("JobInfo.Tenant through gateway = %q, want ops", info.Tenant)
	}
	if _, err := f.client.Result(ctx, info.ID); err != nil {
		t.Fatalf("result with token: %v", err)
	}
	if body, md5hex := fetchTrace(t, f.client, info.ID, service.NewTraceOptions()); len(body) == 0 || md5hex == "" {
		t.Error("trace with token came back empty")
	}

	// A bare dev header is not a credential in jwt mode.
	req, _ := http.NewRequest("GET", f.front.URL+"/v1/jobs/"+info.ID, nil)
	req.Header.Set(auth.TenantHeader, "mallory")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unsigned dev header in jwt mode = %d, want 401", resp.StatusCode)
	}

	// Shards reject direct tokenless access as well — the fleet has no
	// open back door behind the gateway.
	if _, err := f.clients[0].Stats(ctx); err != nil {
		t.Errorf("shard stats should stay open: %v", err)
	}
	if _, err := f.clients[0].Submit(ctx, spec(501)); !errors.Is(err, &service.APIError{Code: obs.CodeUnauthorized}) {
		t.Fatalf("direct tokenless shard submit err = %v, want unauthorized", err)
	}

	// The operational read-only surface needs no token anywhere.
	for _, base := range []string{f.front.URL, f.shards[0].URL} {
		for _, path := range []string{"/v1/healthz", "/v1/stats", "/metrics"} {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s%s without token = %d, want 200", base, path, resp.StatusCode)
			}
		}
	}

	// Per-tenant series materialized on the gateway scrape: request
	// counts for both the 401s (no tenant — absent) and the ops 2xx
	// traffic, plus ops trace bytes on the trace route.
	mresp, err := http.Get(f.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	scrape := string(mbody)
	if !strings.Contains(scrape, `nmo_tenant_http_requests_total{tenant="ops",code="2xx"}`) {
		t.Errorf("gateway scrape missing ops 2xx tenant series:\n%.2000s", scrape)
	}
	if !strings.Contains(scrape, `nmo_tenant_http_response_bytes_total{tenant="ops",route="GET /v1/jobs/{id}/trace"}`) {
		t.Errorf("gateway scrape missing ops trace-bytes series")
	}

	// Shard-side tenant accounting followed the principal as well.
	st := f.scheds[0].Stats()
	st2 := f.scheds[1].Stats()
	var submitted uint64
	for _, row := range append(st.Tenants, st2.Tenants...) {
		if row.Tenant == "ops" {
			submitted += row.Submitted
		}
	}
	if submitted == 0 {
		t.Error("no shard recorded an ops submission")
	}
}

// TestGatewayRateLimit: the gateway is the terminating edge for
// per-tenant submission rates — a 1-token bucket answers the second
// rapid submission with the 429 quota_exceeded envelope, while other
// tenants are unaffected.
func TestGatewayRateLimit(t *testing.T) {
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{
		"drip": {RatePerSec: 0.001, Burst: 1},
	}}
	f, key := newAuthFleet(t, 1, quotas)
	ctx := context.Background()

	tok, err := auth.SignHS256(key, auth.Claims{Tenant: "drip"})
	if err != nil {
		t.Fatal(err)
	}
	f.client.Token = tok
	if _, err := f.client.Submit(ctx, spec(510)); err != nil {
		t.Fatalf("first submission within burst: %v", err)
	}
	_, err = f.client.Submit(ctx, spec(511))
	if !errors.Is(err, &service.APIError{Code: obs.CodeQuotaExceeded}) {
		t.Fatalf("second submission err = %v, want quota_exceeded", err)
	}
	var ae *service.APIError
	if errors.As(err, &ae) {
		if ae.Status != http.StatusTooManyRequests || ae.RequestID == "" {
			t.Errorf("quota envelope = %+v, want 429 with request ID", ae)
		}
	}

	// Reads are not submissions: status polls pass while the bucket is
	// dry, so a throttled tenant can still watch its running jobs.
	otherTok, err := auth.SignHS256(key, auth.Claims{Tenant: "other"})
	if err != nil {
		t.Fatal(err)
	}
	other := service.NewClient(f.front.URL)
	other.Token = otherTok
	if _, err := other.Submit(ctx, spec(512)); err != nil {
		t.Fatalf("unthrottled tenant rejected: %v", err)
	}
}

// TestGatewayDevTenantHeader: in none mode the X-Nmo-Tenant header
// names the tenant, and the gateway forwards it to the shard with the
// internal marker so the principal survives the hop without a key.
func TestGatewayDevTenantHeader(t *testing.T) {
	f := newFleet(t, 1)

	body := strings.NewReader(mustJSON(t, spec(520)))
	req, err := http.NewRequest("POST", f.front.URL+"/v1/jobs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(auth.TenantHeader, "devteam")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dev-header submit = %d: %s", resp.StatusCode, raw)
	}
	var info service.JobInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Tenant != "devteam" {
		t.Errorf("JobInfo.Tenant = %q, want devteam", info.Tenant)
	}

	// The shard recorded the tenant too (header crossed the hop). Only
	// the owning tenant may read the job back.
	req, err = http.NewRequest("GET", f.front.URL+"/v1/jobs/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(auth.TenantHeader, "devteam")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var info2 service.JobInfo
	err = json.NewDecoder(resp.Body).Decode(&info2)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info2.Tenant != "devteam" {
		t.Errorf("proxied status Tenant = %q, want devteam", info2.Tenant)
	}

	// No header at all: the default tenant.
	plain := submitWait(t, f.client, spec(521))
	if plain.Tenant != auth.DefaultTenant {
		t.Errorf("headerless Tenant = %q, want %q", plain.Tenant, auth.DefaultTenant)
	}
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestGatewayEnvelope404And405: the gateway speaks the same envelope
// dialect as the shards on its own routing failures.
func TestGatewayEnvelope404And405(t *testing.T) {
	f := newFleet(t, 1)

	resp, err := http.Get(f.front.URL + "/v1/not-a-route")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var env struct {
		Error *obs.APIError `json:"error"`
	}
	if resp.StatusCode != http.StatusNotFound ||
		json.Unmarshal(raw, &env) != nil || env.Error == nil || env.Error.Code != obs.CodeNotFound {
		t.Errorf("gateway 404 = %d %q, want not_found envelope", resp.StatusCode, raw)
	}

	req, _ := http.NewRequest("PUT", f.front.URL+"/v1/jobs", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	env.Error = nil
	if resp.StatusCode != http.StatusMethodNotAllowed ||
		json.Unmarshal(raw, &env) != nil || env.Error == nil || env.Error.Code != obs.CodeMethodNotAllowed {
		t.Errorf("gateway 405 = %d %q, want method_not_allowed envelope", resp.StatusCode, raw)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Errorf("Allow = %q, want POST", allow)
	}

	// Unknown job IDs (malformed shard prefix) are not_found envelopes.
	f.client.Token = ""
	_, err = f.client.Job(context.Background(), "garbage-id")
	if !errors.Is(err, &service.APIError{Code: obs.CodeNotFound}) {
		t.Errorf("bad gateway ID err = %v, want not_found", err)
	}
}
