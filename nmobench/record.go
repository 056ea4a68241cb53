package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"nmo/internal/service"
)

// runRecord is what makes two runs comparable like for like. It is
// printed before the result line.
type runRecord struct {
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Traced     bool    `json:"traced"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	WaitPollMs float64 `json:"wait_poll_ms"`
	Spans      string  `json:"spans,omitempty"`
}

func newRunRecord(o options) (*runRecord, error) {
	poll, err := measureWaitPoll()
	if err != nil {
		return nil, err
	}
	return &runRecord{
		Commit: commitID(), Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Traced: o.trace, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), WaitPollMs: poll.Seconds() * 1e3,
	}, nil
}

// commitID is the git commit of the working directory, or, outside a
// git checkout, "src:" and a SHA-256 over every Go source and module
// file beneath it (hidden directories skipped).
func commitID() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// measureWaitPoll finds the interval service.Client.Wait polls at with
// its shipped default (poll = 0), against a stub daemon that reports
// the job queued twice before done.
func measureWaitPoll() (time.Duration, error) {
	var mu sync.Mutex
	var hits []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits = append(hits, time.Now())
		n := len(hits)
		mu.Unlock()
		state := service.StateQueued
		if n >= 3 {
			state = service.StateDone
		}
		json.NewEncoder(w).Encode(service.JobInfo{ID: "j1", State: state})
	}))
	defer srv.Close()
	cl := service.NewClient(srv.URL)
	if _, err := cl.Wait(context.Background(), "j1", 0); err != nil {
		return 0, err
	}
	mu.Lock()
	defer mu.Unlock()
	return hits[len(hits)-1].Sub(hits[0]) / time.Duration(len(hits)-1), nil
}
