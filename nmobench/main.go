// Command nmobench is the repository's benchmark: it runs one named
// workload for a fixed time, checks every output, and prints its
// metrics as one JSON object on the last line of standard output.
//
//	nmobench -workload sweep -seed 42 -seconds 30 -trace 0 -bin DIR -work DIR
//
// With -trace 0 it prints the end-to-end metrics. With -trace 1 it
// measures the workload untraced, then again with a span around every
// call into a layer, and prints the per-layer metrics of the traced
// pass plus the tracing overhead between the two. The fleet workloads
// start the nmod and nmogw binaries found in -bin; temporary files go
// under -work. README.md lists the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed nmorepro's QuickScale uses; the sweep's
	// tables are pinned byte for byte at it.
	defaultSeed = 42
	// sweepSLO bounds one full Fig. 8 grid at QuickScale.
	sweepSLO = 120 * time.Second
)

// metricDef is one reported metric and its unit. BENCHMARK.json at the
// repository root declares the same names and units.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every
// workload. README.md says what one operation is on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"slo_ratio", "ratio"},
	{"ok_ratio", "ratio"},
	{"rss_p90_mib", "MiB"},
}

// perLayer are the metrics every traced run prints. A layer a workload
// never calls reads 0.
var perLayer = []metricDef{
	{"tracing.overhead_ratio", "ratio"},
	{"e2e.samples", "count"},
	{"e2e.tail_ms", "ms"},
	{"e2e.tail_permille", "permille"},
	{"share.bench", "ratio"},
	{"share.engine", "ratio"},
	{"share.workloads", "ratio"},
	{"share.machine", "ratio"},
	{"share.core", "ratio"},
	{"share.trace", "ratio"},
	{"share.service", "ratio"},
	{"workloads.build_s", "s"},
	{"machine.new_s", "s"},
	{"machine.run_s", "s"},
	{"machine.ops", "count"},
	{"machine.ns_per_op", "ns"},
	{"memsim.mem_accesses", "count"},
	{"memsim.bus_accesses", "count"},
	{"sampler.self_s", "s"},
	{"sampler.host_overhead_ratio", "ratio"},
	{"sampler.samples", "count"},
	{"sampler.collisions", "count"},
	{"perfev.wakeups", "count"},
	{"perfev.truncated", "count"},
	{"trace.sink_s", "s"},
	{"trace.ns_per_sample", "ns"},
	{"trace.v2_sink_s", "s"},
	{"trace.v2_ns_per_sample", "ns"},
	{"trace.blob_bytes", "B"},
	{"engine.scenarios", "count"},
	{"engine.parallel_eff", "ratio"},
	{"service.submit_ms", "ms"},
	{"service.wait_s", "s"},
	{"service.result_ms", "ms"},
	{"service.trace_unfiltered_ms", "ms"},
	{"service.cache_lookup_ms", "ms"},
	{"service.queue_wait_s", "s"},
	{"service.run_s", "s"},
	{"service.digest_s", "s"},
	{"service.spill_s", "s"},
	{"service.poll_delay_s", "s"},
	{"service.status_requests_per_job", "count"},
	{"service.engine_runs", "count"},
	{"service.cache_hits", "count"},
	{"service.coalesced", "count"},
	{"service.promotions", "count"},
	{"service.demotions", "count"},
	{"service.bytes_mem", "B"},
	{"service.bytes_disk", "B"},
	{"service.file_serve_share", "ratio"},
	{"zerocopy.sendfile_bytes", "B"},
	{"zerocopy.splice_bytes", "B"},
	{"zerocopy.fallback_bytes", "B"},
	{"gateway.hop_ms", "ms"},
	{"hit.p50_ms", "ms"},
	{"hit.p90_ms", "ms"},
	{"hit.tail_ms", "ms"},
	{"hit.tail_permille", "permille"},
	{"hit.slo_ratio", "ratio"},
	{"hit.jobs_per_s", "1/s"},
	{"hit.setup_s", "s"},
	{"hit.trace_unfiltered_ms", "ms"},
	{"hit.trace_filtered_ms", "ms"},
	{"hit.engine_runs", "count"},
	{"hit.cache_hits", "count"},
	{"hit.promotions", "count"},
	{"hit.demotions", "count"},
	{"hit.file_serve_share", "ratio"},
	{"hit.sendfile_bytes", "B"},
	{"hit.gateway_hop_ms", "ms"},
	{"hit.status_requests_per_job", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.offered_per_s", "1/s"},
	{"proc.cpu_s_per_job", "s"},
	{"proc.alloc_mib_per_scenario", "MiB"},
	{"proc.hwm_mib", "MiB"},
}

// options are the command line.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	bin, work string
	jobs      int // client and engine concurrency: runtime.NumCPU()
}

// measurement is one pass over a workload.
type measurement struct {
	attempted, failed int
	e2e, layer        map[string]float64
	tables            string // sweep only: the rendered Fig. 8 tables
	notes             []string
}

func newMeasurement() *measurement {
	return &measurement{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// note records why an output check failed; notes go to stderr.
func (m *measurement) note(format string, args ...any) {
	if len(m.notes) < 20 {
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
}

// workloadFuncs maps each workload name to its measurement. A nil tracer
// measures untraced.
var workloadFuncs = map[string]func(options, *tracer) (*measurement, error){
	"sweep":      measureSweep,
	"fleet-miss": measureMiss,
	"fleet-hit":  measureHit,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: sweep, fleet-miss or fleet-hit")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured time per pass")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the nmod and nmogw binaries")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for temporary files and span dumps")
	flag.Parse()
	o.trace = traceFlag == 1
	o.jobs = runtime.NumCPU()
	if _, ok := workloadFuncs[o.workload]; !ok || o.seconds < 1 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "nmobench: need -workload sweep|fleet-miss|fleet-hit, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "nmobench: %v: stopping daemons\n", s)
		stopAll()
		os.Exit(130)
	}()

	res, err := run(o)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmobench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nmobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run measures the workload and assembles the result. It prints the
// run record first, so the result stays the last line.
func run(o options) (*result, error) {
	rec, err := newRunRecord(o)
	if err != nil {
		return nil, err
	}
	measure := workloadFuncs[o.workload]
	base, err := measure(o, nil)
	if err != nil {
		return nil, err
	}
	base.e2e["ok_ratio"] = okRatio(base.attempted-base.failed, base.failed)
	passes := []*measurement{base}
	metrics, defs := base.e2e, endToEnd
	if o.trace {
		tr := newTracer()
		traced, err := measure(o, tr)
		if err != nil {
			return nil, err
		}
		passes = append(passes, traced)
		traced.attempted++
		if base.tables != traced.tables {
			traced.failed++
			traced.note("traced replay tables differ from the PeriodSweep tables")
		}
		self := selfTimes(tr.snapshot())
		for layer, share := range layerShares(self) {
			traced.layer["share."+layer] = share
		}
		for name, key := range map[string]string{
			"workloads.new": "workloads.build_s",
			"machine.new":   "machine.new_s",
		} {
			if d, ok := self[name]; ok {
				traced.layer[key] = d.Seconds()
			}
		}
		traced.layer["tracing.overhead_ratio"] = traced.e2e["op_p50_ms"]/base.e2e["op_p50_ms"] - 1
		metrics, defs = traced.layer, perLayer
		rec.Spans = filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := tr.writeJSONL(rec.Spans); err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]metricValue{}}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, n := range p.notes {
			fmt.Fprintln(os.Stderr, "nmobench: check failed:", n)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok && o.trace {
			v, ok = 0, true // a layer this workload never calls
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured (value %v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(rec)
	fmt.Print("run record: ", buf.String())
	return res, nil
}

// sloRatio is the share of operations that finished within limit;
// failed operations count as misses.
func sloRatio(lat []float64, limit float64, failed int) float64 {
	within := 0
	for _, l := range lat {
		if l <= limit {
			within++
		}
	}
	if len(lat)+failed == 0 {
		return 0
	}
	return float64(within) / float64(len(lat)+failed)
}

// okRatio is one minus the share of failed operations.
func okRatio(done, failed int) float64 {
	if done+failed == 0 {
		return 0
	}
	return float64(done) / float64(done+failed)
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
