package gateway

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"nmo/internal/service"
)

// BenchmarkGatewayOverhead isolates the routing tier's cost: identical
// cache-hit submissions (submit + wait + nothing simulated) measured
// directly against one shard versus proxied through a two-member
// gateway. The delta is pure gateway work — content-address hashing,
// ring lookup, one extra HTTP hop, ID rewriting. CI appends this to
// BENCH_service.json next to BenchmarkServiceThroughput so the
// gateway-proxied vs direct jobs/sec trajectory is recorded per
// commit.
func BenchmarkGatewayOverhead(b *testing.B) {
	js := service.JobSpec{Scenarios: []service.ScenarioSpec{{
		Workload: "stream",
		Threads:  2,
		Elems:    20_000,
		Iters:    1,
		Cores:    4,
		Seed:     1,
		Period:   700,
	}}}

	run := func(b *testing.B, client *service.Client) {
		ctx := context.Background()
		// Prime the owning shard's cache so every measured iteration is
		// a pure service round-trip.
		info, err := client.Submit(ctx, js)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.Wait(ctx, info.ID, time.Millisecond); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			info, err := client.Submit(ctx, js)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := client.Wait(ctx, info.ID, time.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	}

	b.Run("direct", func(b *testing.B) {
		sched := service.NewScheduler(service.SchedConfig{Workers: 2}, nil)
		defer sched.Close()
		srv := httptest.NewServer(service.NewServer(sched))
		defer srv.Close()
		run(b, service.NewClient(srv.URL))
	})
	b.Run("proxied", func(b *testing.B) {
		members := make([]string, 2)
		for i := range members {
			sched := service.NewScheduler(service.SchedConfig{Workers: 2}, nil)
			defer sched.Close()
			srv := httptest.NewServer(service.NewServer(sched))
			defer srv.Close()
			members[i] = srv.URL
		}
		gw, err := New(Config{Members: members})
		if err != nil {
			b.Fatal(err)
		}
		defer gw.Close()
		front := httptest.NewServer(gw)
		defer front.Close()
		run(b, service.NewClient(front.URL))
	})
}
