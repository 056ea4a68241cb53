package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nmo/internal/auth"
	"nmo/internal/obs"
)

// syncBuffer is a bytes.Buffer safe to read while the audit sink
// writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncBuffer) Bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.b.Bytes()...)
}

// terminalEvents counts the terminal-state audit lines per job ID.
func terminalEvents(t *testing.T, log []byte) map[string]int {
	t.Helper()
	n := make(map[string]int)
	dec := json.NewDecoder(bytes.NewReader(log))
	for dec.More() {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("audit log: %v", err)
		}
		if ev.Kind == "job" && JobState(ev.State).Terminal() {
			n[ev.Job]++
		}
	}
	return n
}

// checkDoneIffTerminal fails the test when Done and the job's state
// disagree: a closed Done must mean a terminal state, and a terminal
// state must mean Done is already closed.
func checkDoneIffTerminal(t *testing.T, j *Job) {
	closed := func() bool {
		select {
		case <-j.Done():
			return true
		default:
			return false
		}
	}
	before := closed()
	st := j.Info().State
	after := closed()
	if before && !st.Terminal() {
		t.Errorf("job %s: Done closed while %s", j.ID, st)
	}
	if st.Terminal() && !after {
		t.Errorf("job %s: %s but Done still open", j.ID, st)
	}
}

// TestSchedulerModel is a randomized model-based test of the job
// lifecycle (run it under -race). Three weighted tenants concurrently
// submit shared and distinct keys at mixed priorities and cancel
// random jobs, while one of them closes the scheduler partway through
// and running jobs complete. It checks that every job reaches exactly
// one terminal state with Done closed iff terminal, that the tenant
// in-flight and queue counters drain to 0, that engine runs never
// exceed the distinct keys admitted, and that the running count never
// exceeds Workers.
func TestSchedulerModel(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	const workers = 2
	tenants := []string{"alpha", "beta", "gamma"}
	quotas := &auth.Quotas{Tenants: map[string]auth.TenantQuota{
		"alpha": {Weight: 3},
		"beta":  {Weight: 1, MaxInFlight: 2},
		"gamma": {Weight: 2},
	}}
	var audit syncBuffer
	s := NewScheduler(SchedConfig{
		Workers: workers, QueueCap: 6, Quotas: quotas,
		Metrics: NewMetrics(obs.NewAuditWriter(&audit)),
	}, nil)
	defer s.Close()

	var (
		mu   sync.Mutex
		jobs []*Job
		keys = make(map[string]bool)
	)
	snapshot := func() []*Job {
		mu.Lock()
		defer mu.Unlock()
		return append([]*Job(nil), jobs...)
	}

	// The observer samples occupancy and the Done/state agreement for
	// as long as the clients run.
	stop := make(chan struct{})
	observed := make(chan struct{})
	go func() {
		defer close(observed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.mu.Lock()
			nRun, perTenant := s.nRun, 0
			for _, n := range s.runningT {
				perTenant += n
			}
			s.mu.Unlock()
			if nRun > workers || perTenant != nRun {
				t.Errorf("running = %d (per-tenant sum %d), workers %d", nRun, perTenant, workers)
			}
			for _, j := range snapshot() {
				checkDoneIffTerminal(t, j)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const ops = 14
	closer := rand.New(rand.NewSource(seed)).Intn(len(tenants))
	var wg sync.WaitGroup
	for ti, tenant := range tenants {
		ti, tenant := ti, tenant
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(ti) + 1))
			closeAt := -1
			if ti == closer {
				closeAt = ops*2/3 + rng.Intn(ops/3)
			}
			for op := 0; op < ops; op++ {
				if op == closeAt {
					s.Close()
					continue
				}
				switch r := rng.Intn(10); {
				case r < 6:
					// Shared keys (a pool of four) coalesce and hit
					// across tenants; distinct ones always lead.
					key := uint64(900 + rng.Intn(4))
					if rng.Intn(3) == 0 {
						key = uint64(1000 + 100*ti + op)
					}
					sp := quickSpec(key)
					sp.Elems, sp.Iters = 2_000, 1
					spec := JobSpec{Scenarios: []ScenarioSpec{sp}, Priority: rng.Intn(4)}
					j, err := s.SubmitTenant(spec, "", tenant)
					switch err {
					case nil:
						mu.Lock()
						jobs = append(jobs, j)
						keys[j.Key] = true
						mu.Unlock()
					case ErrQueueFull, ErrQuotaExceeded, errShutdown:
					default:
						t.Errorf("submit: %v", err)
					}
				case r < 8:
					if all := snapshot(); len(all) > 0 {
						if err := s.Cancel(all[rng.Intn(len(all))].ID); err != nil {
							t.Errorf("cancel: %v", err)
						}
					}
				default:
					time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
				}
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	s.Close()
	close(stop)
	<-observed

	all := snapshot()
	for _, j := range all {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s never reached a terminal state (%s)", j.ID, j.Info().State)
		}
		checkDoneIffTerminal(t, j)
	}

	// Each terminal transition writes one audit line, just after Done
	// closes.
	n := terminalEvents(t, audit.Bytes())
	for deadline := time.Now().Add(10 * time.Second); len(n) < len(all) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = terminalEvents(t, audit.Bytes())
	}
	for _, j := range all {
		if n[j.ID] != 1 {
			t.Errorf("job %s: %d terminal transitions, want 1", j.ID, n[j.ID])
		}
	}

	s.mu.Lock()
	if len(s.inflight) != 0 || s.nQueued != 0 || len(s.active) != 0 || s.nRun != 0 || len(s.runningT) != 0 {
		t.Errorf("scheduler not drained: inflight %v, queued %d, active %d, running %d, per-tenant running %v",
			s.inflight, s.nQueued, len(s.active), s.nRun, s.runningT)
	}
	s.mu.Unlock()
	if runs := s.EngineRuns(); runs > uint64(len(keys)) {
		t.Errorf("engine runs = %d, distinct keys admitted = %d", runs, len(keys))
	}
	states := make(map[JobState]int)
	for _, j := range all {
		states[j.Info().State]++
	}
	t.Logf("%d jobs %v, %d distinct keys, %d engine runs", len(all), states, len(keys), s.EngineRuns())
}
