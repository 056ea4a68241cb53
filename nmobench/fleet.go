package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nmo/internal/gateway"
)

// daemon is one nmod or nmogw child process.
type daemon struct {
	name     string
	addr     string // host:port on loopback
	log      string
	cmd      *exec.Cmd
	exited   chan struct{}
	stopping atomic.Bool
}

// fleet is two nmod shards behind one nmogw, each on an ephemeral
// loopback port, with spill directories and logs under one temp dir.
type fleet struct {
	dir    string
	shards []*daemon
	gw     *daemon
	once   sync.Once
}

// live holds every fleet not yet stopped, so the interrupt handler can
// stop them on the way out.
var live = struct {
	sync.Mutex
	fleets map[*fleet]bool
}{fleets: map[*fleet]bool{}}

// stopAll stops every live fleet; the interrupt path calls it.
func stopAll() {
	live.Lock()
	fs := make([]*fleet, 0, len(live.fleets))
	for f := range live.fleets {
		fs = append(fs, f)
	}
	live.Unlock()
	for _, f := range fs {
		f.stop()
	}
}

// freePort reserves an ephemeral loopback port and releases it for the
// daemon to bind. A lost race shows up as a daemon that exits at boot;
// bootFleet then retries on fresh ports.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon starts bin listening on addr ("" = a fresh ephemeral
// loopback port).
func startDaemon(name, bin, addr, logPath string, args ...string) (*daemon, error) {
	if addr == "" {
		var err error
		if addr, err = freePort(); err != nil {
			return nil, err
		}
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the daemon if this process dies, whatever the
	// cause, so no exit path leaves one behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{name: name, addr: addr, log: logPath, cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// dead reports whether the daemon exited without being asked to.
func (d *daemon) dead() bool {
	select {
	case <-d.exited:
		return !d.stopping.Load()
	default:
		return false
	}
}

func (d *daemon) stop() {
	d.stopping.Store(true)
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(3 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// logTail returns the last lines of the daemon's log.
func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.log)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, "\n")
}

var healthClient = &http.Client{Timeout: time.Second}

// healthPoll is how often a booting daemon's health route is probed:
// a boot takes about 10 ms, so a coarser probe would quantize setup_s.
const healthPoll = 250 * time.Microsecond

// healthy waits until the daemon answers GET /v1/healthz with 200.
func (d *daemon) healthy(ctx context.Context) error {
	for {
		if d.dead() {
			return fmt.Errorf("%s exited at boot: %s", d.name, d.logTail())
		}
		resp, err := healthClient.Get("http://" + d.addr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %v", d.name, ctx.Err())
		case <-time.After(healthPoll):
		}
	}
}

// bootFleet starts two shards (with shardArgs, on shardAddrs when
// given) and the gateway, and returns once all three answer their
// health route.
func bootFleet(bin, work string, shardAddrs, shardArgs []string) (*fleet, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		f, err := tryBoot(bin, work, shardAddrs, shardArgs)
		if err == nil {
			return f, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryBoot(bin, work string, shardAddrs, shardArgs []string) (*fleet, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	live.Lock()
	live.fleets[f] = true
	live.Unlock()
	var members []string
	for i := 0; i < 2; i++ {
		spill := filepath.Join(dir, fmt.Sprintf("spill%d", i))
		args := append([]string{"-cache-dir", spill}, shardArgs...)
		addr := ""
		if shardAddrs != nil {
			addr = shardAddrs[i]
		}
		d, err := startDaemon(fmt.Sprintf("nmod%d", i), filepath.Join(bin, "nmod"), addr,
			filepath.Join(dir, fmt.Sprintf("nmod%d.log", i)), args...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, d)
		members = append(members, d.addr)
	}
	gw, err := startDaemon("nmogw", filepath.Join(bin, "nmogw"), "", filepath.Join(dir, "nmogw.log"),
		"-members", strings.Join(members, ","))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.gw = gw
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, d := range f.all() {
		if err := d.healthy(ctx); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) all() []*daemon {
	out := append([]*daemon(nil), f.shards...)
	if f.gw != nil {
		out = append(out, f.gw)
	}
	return out
}

// deadErr names the first daemon that died while the fleet was up.
func (f *fleet) deadErr() error {
	for _, d := range f.all() {
		if d.dead() {
			return fmt.Errorf("%s died mid-run: %s", d.name, d.logTail())
		}
	}
	return nil
}

// stop stops the daemons, gateway first, and removes the fleet's
// directory. It is idempotent and safe from the interrupt handler.
func (f *fleet) stop() {
	f.once.Do(func() {
		ds := f.all()
		for i := len(ds) - 1; i >= 0; i-- {
			ds[i].stop()
		}
		os.RemoveAll(f.dir)
		live.Lock()
		delete(live.fleets, f)
		live.Unlock()
	})
}

// pinnedAddrs picks loopback addresses for the two shards under which
// the gateway's hash ring (gateway.DefaultReplicas virtual nodes per
// member, as nmogw runs by default) sends each key of want to the
// shard it names. The ring hashes member addresses, so with arbitrary
// ephemeral ports the hot keys would land differently in every run;
// pinning them keeps the fleet-hit layout the same at every seed.
func pinnedAddrs(want map[string]int) ([]string, error) {
	for round := 0; round < 20; round++ {
		var lns []net.Listener
		for i := 0; i < 32; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				break
			}
			lns = append(lns, ln)
		}
		var got []string
		for _, a := range lns {
			for _, b := range lns {
				pair := []string{a.Addr().String(), b.Addr().String()}
				if a != b && got == nil && placesAll(pair, want) {
					got = pair
				}
			}
		}
		for _, ln := range lns {
			ln.Close()
		}
		if got != nil {
			return got, nil
		}
	}
	return nil, fmt.Errorf("no loopback port pair places the %d pinned keys as asked", len(want))
}

// placesAll reports whether a ring over the pair sends every key of
// want to its shard.
func placesAll(pair []string, want map[string]int) bool {
	ring := gateway.NewRing(gateway.DefaultReplicas)
	for _, addr := range pair {
		ring.Add("http://" + addr)
	}
	for key, shard := range want {
		if ring.Lookup(key) != "http://"+pair[shard] {
			return false
		}
	}
	return true
}

// procStatus reads one "Key: N kB" field of /proc/<pid>/status, in
// bytes.
func procStatus(pid int, key string) (int64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times (100 on every Linux ABI Go supports).
const clockTicks = 100

// procCPU returns the user+system CPU seconds of a process.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseFloat(rest[11], 64)
	st, err2 := strconv.ParseFloat(rest[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad CPU fields", pid)
	}
	return (ut + st) / clockTicks, nil
}

// pids are the process IDs of the fleet's live daemons.
func (f *fleet) pids() []int {
	var out []int
	for _, d := range f.all() {
		if !d.dead() {
			out = append(out, d.cmd.Process.Pid)
		}
	}
	return out
}

// rssSampler samples the summed VmRSS of a set of processes.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

// rssEvery is the RSS sampling interval.
const rssEvery = 50 * time.Millisecond

// sampleRSS starts sampling the summed VmRSS of pids() every rssEvery.
// The peak (VmHWM) of a Go process depends on where its garbage
// collections fall; a high percentile of many samples does not.
func sampleRSS(pids func() []int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			var sum int64
			for _, pid := range pids() {
				if b, err := procStatus(pid, "VmRSS"); err == nil {
					sum += b
				}
			}
			s.samples = append(s.samples, float64(sum)/(1<<20))
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the 90th percentile, in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return percentile(s.samples, 900)
}

// peakRSS is the summed VmHWM of the fleet's live processes, in MiB.
func (f *fleet) peakRSS() (float64, error) {
	var sum int64
	for _, pid := range f.pids() {
		b, err := procStatus(pid, "VmHWM")
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return float64(sum) / (1 << 20), nil
}

// cpuSeconds is the summed CPU time of the fleet's live processes.
func (f *fleet) cpuSeconds() (float64, error) {
	var sum float64
	for _, pid := range f.pids() {
		c, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}
