// Command nmoprof profiles the paper workloads under the NMO_*
// environment configuration (Table I), mirroring how the real tool
// attaches via LD_PRELOAD and is configured by environment:
//
//	NMO_ENABLE=1 NMO_MODE=full NMO_PERIOD=4096 NMO_TRACK_RSS=1 \
//	    nmoprof -workload stream -threads 32
//
// -workload accepts a comma-separated list; cycle-level workloads
// (stream, cfd, bfs) then execute concurrently on the internal/engine
// worker pool, bounded by -jobs. Cycle-level summaries print in
// request order, followed by the phase-level (pagerank, inmem)
// timelines; per-workload profiles stay bit-identical at any -jobs
// value. -backend (or NMO_BACKEND) selects the sampling backend and
// with it the simulated platform: spe profiles on the ARM Altra,
// pebs on the Intel Ice Lake part.
//
// It writes <NMO_NAME>.trace.csv, <NMO_NAME>.trace.bin and
// <NMO_NAME>.{capacity,bandwidth}.csv next to the working directory
// and prints a summary with the trace MD5. With several workloads the
// file base becomes <NMO_NAME>.<workload>.
//
// With -trace-out (or NMO_TRACE_OUT) the samples stream into a
// blocked, indexed v2 trace file instead of being materialized in
// memory: the run's sample footprint is one block, and the summary
// tables are derived afterwards by scanning the file out-of-core
// (one pass, several aggregations). With several workloads the
// workload name is inserted before the file extension.
//
// With -remote <addr> nothing simulates locally: the request becomes
// an nmod job (cycle-level workloads only), the daemon runs — or
// serves from its content-addressed cache — and the tables, counters
// and trace files below come over HTTP. The streamed v2 file is
// byte-identical to what the same invocation writes locally. The
// address may equally be an nmogw fleet gateway: the gateway speaks
// the same API, consistent-hashes the submission onto the shard whose
// cache owns its content address, and nothing here changes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nmo"
	"nmo/internal/engine"
	"nmo/internal/experiments"
	"nmo/internal/postproc"
	"nmo/internal/report"
	"nmo/internal/service"
	"nmo/internal/workloads"
)

func main() {
	// Defaults shared with the nmod wire format (service.Default*), so
	// a defaulted -remote submission equals a defaulted local run.
	workload := flag.String("workload", "stream",
		"comma-separated list of stream | cfd | bfs | pagerank | inmem")
	threads := flag.Int("threads", service.DefaultThreads, "worker threads (cycle-level workloads)")
	elems := flag.Int("elems", service.DefaultElems, "elements/nodes for cycle-level workloads")
	iters := flag.Int("iters", service.DefaultIters, "iterations for stream/cfd")
	cores := flag.Int("cores", service.DefaultCores, "machine cores")
	seed := flag.Uint64("seed", service.DefaultSeed, "workload/profiler seed")
	jobs := flag.Int("jobs", 0, "parallel scenario workers (0 = one per CPU, 1 = serial)")
	backend := flag.String("backend", "",
		"sampling backend ("+nmo.SupportedBackends()+"); selects the machine ISA (default spe on ARM); overrides NMO_BACKEND")
	traceOut := flag.String("trace-out", "",
		"stream samples to an indexed v2 trace file (bounded memory); overrides NMO_TRACE_OUT")
	traceCompress := flag.Bool("trace-compress", false,
		"store the trace in the v2.1 format (per-block compression, same checksum); overrides NMO_TRACE_COMPRESS")
	remote := flag.String("remote", "",
		"submit to an nmod daemon at this address instead of simulating locally")
	priority := flag.Int("priority", 0, "remote mode: job priority (higher runs first)")
	token := flag.String("token", os.Getenv("NMO_TOKEN"),
		"remote mode: bearer token for daemons in -auth-mode jwt (default $NMO_TOKEN)")
	flag.Parse()

	if err := run(*workload, *threads, *elems, *iters, *cores, *seed, *jobs, *backend, *traceOut, *traceCompress, *remote, *priority, *token); err != nil {
		fmt.Fprintln(os.Stderr, "nmoprof:", err)
		os.Exit(1)
	}
}

func run(workload string, threads, elems, iters, cores int, seed uint64, jobs int, backend, traceOut string, traceCompress bool, remote string, priority int, token string) error {
	cfg, err := nmo.FromEnv()
	if err != nil {
		return err
	}
	cfg.Seed = seed
	if backend != "" {
		// The parse error names every supported backend.
		kind, err := nmo.ParseBackend(backend)
		if err != nil {
			return fmt.Errorf("-backend: %w", err)
		}
		cfg.Backend = kind
	}
	if traceOut != "" {
		cfg.TraceOut = traceOut
	}
	if traceCompress {
		cfg.TraceCompress = true
	}
	if remote != "" {
		return runRemote(remote, token, workload, threads, elems, iters, cores, seed, priority, cfg)
	}
	if !cfg.Enable {
		fmt.Println("NMO_ENABLE is not set; running uninstrumented (timing only).")
		if cfg.TraceOut != "" {
			fmt.Println("WARNING: -trace-out is ignored while profiling is disabled; no trace file will be written.")
		}
	}

	names := strings.Split(workload, ",")
	seen := make(map[string]bool, len(names))
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if seen[names[i]] {
			// Output files are keyed by workload name; duplicates
			// would silently overwrite each other.
			return fmt.Errorf("workload %q requested twice", names[i])
		}
		seen[names[i]] = true
	}
	multi := len(names) > 1

	// Split the request into cycle-level scenarios (sharded across the
	// engine pool) and phase-level CloudSuite timelines. The backend
	// pins the platform: SPE profiles on the Altra, PEBS on the Ice
	// Lake part.
	spec := nmo.SpecForBackend(cfg.Backend).WithCores(cores)
	var scenarios []engine.Scenario
	var cloud []string
	for _, name := range names {
		switch name {
		case "pagerank", "inmem":
			cloud = append(cloud, name)
			continue
		case "stream", "cfd", "bfs":
		default:
			return fmt.Errorf("unknown workload %q", name)
		}
		// The canonical constructor shared with the nmod resolver —
		// remote and local runs build identical workloads.
		name := name
		factory := func() (workloads.Workload, error) {
			return workloads.NewStandard(name, elems, threads, iters, seed)
		}
		// Each scenario writes its own v2 file: distinct paths when
		// several workloads share one -trace-out request.
		scfg := cfg
		if cfg.TraceOut != "" && multi {
			scfg.TraceOut = insertName(cfg.TraceOut, name)
		}
		scenarios = append(scenarios, engine.Scenario{
			Name: name, Spec: spec, Config: scfg, Workload: factory,
		})
	}

	results := engine.Runner{Jobs: jobs}.RunAll(scenarios)
	for i, res := range results {
		if res.Err != nil {
			return res.Err
		}
		base := cfg.Name
		if multi {
			base = cfg.Name + "." + scenarios[i].Name
		}
		if err := report1(res.Profile, scenarios[i].Config, base); err != nil {
			return err
		}
	}

	for _, name := range cloud {
		sc := experiments.DefaultScale()
		sc.Cores = cores
		res, err := experiments.CloudTemporal(sc, name)
		if err != nil {
			return err
		}
		base := cfg.Name
		if multi {
			base = cfg.Name + "." + name
		}
		fmt.Printf("%s: wall %.1fs, peak RSS %.1f GiB (%.1f%% of machine), peak bandwidth %.1f GiB/s\n",
			res.Workload, res.WallSec, res.PeakRSSGiB, res.UtilizationPct, res.PeakBWGiBps)
		if err := writeSeries(base+".capacity.csv", &res.Capacity); err != nil {
			return err
		}
		if err := writeSeries(base+".bandwidth.csv", &res.Bandwidth); err != nil {
			return err
		}
	}
	return nil
}

// runRemote maps the CLI request onto a service JobSpec, submits it to
// the nmod daemon, and renders the returned result document — the
// tables arrive as data, so the output matches a local run's. With
// -trace-out the job's v2 trace streams into the requested file(s);
// resubmitting an identical request is a daemon cache hit and costs no
// simulation.
func runRemote(addr, token, workload string, threads, elems, iters, cores int, seed uint64, priority int, cfg nmo.Config) error {
	if seed == 0 {
		// The wire format uses 0 for "default seed"; submitting it
		// would silently simulate seed 42 instead of seed 0.
		return fmt.Errorf("-remote cannot represent -seed 0 (the wire treats 0 as \"use the default\"); pick a nonzero seed")
	}
	if cfg.Arch != "" {
		// Unrepresentable on the wire: dropping it would happily run
		// the wrong platform where a local run refuses to start.
		return fmt.Errorf("-remote cannot represent NMO_ARCH=%s; pin the platform with -backend instead", cfg.Arch)
	}
	if err := cfg.Validate(); err != nil {
		// Mirror the local rejection (e.g. NMO_TRACE_OUT with a
		// non-sampling mode) instead of silently succeeding with no
		// trace to download.
		return err
	}
	ctx := context.Background()
	mode := cfg.Mode.String()
	if !cfg.Enable {
		mode = "none"
		fmt.Println("NMO_ENABLE is not set; submitting an uninstrumented timing run.")
	}

	var spec service.JobSpec
	spec.Priority = priority
	names := strings.Split(workload, ",")
	for i := range names {
		name := strings.TrimSpace(names[i])
		switch name {
		case "pagerank", "inmem":
			return fmt.Errorf("workload %q is phase-level; the nmod service serves the cycle-level engine path (run it locally)", name)
		}
		spec.Scenarios = append(spec.Scenarios, service.ScenarioSpec{
			Name:     name,
			Workload: name,
			Threads:  threads,
			Elems:    elems,
			Iters:    iters,
			Cores:    cores,
			Seed:     seed,
			Backend:  string(cfg.Backend),
			Mode:     mode,
			Period:   cfg.Period,
			TrackRSS: cfg.TrackRSS,
			BufMiB:   cfg.BufMiB,
			AuxMiB:   cfg.AuxMiB,
			Compress: cfg.TraceCompress,
		})
	}

	client := service.NewClient(addr)
	client.Token = token
	info, err := client.Submit(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Printf("submitted job %s (key %.12s…, cached=%t)\n", info.ID, info.Key, info.Cached)
	if info, err = client.Wait(ctx, info.ID, 0); err != nil {
		return err
	}
	doc, err := client.Result(ctx, info.ID)
	if err != nil {
		return err
	}

	multi := len(spec.Scenarios) > 1
	for _, sr := range doc.Scenarios {
		fmt.Printf("workload %s, %d threads: wall %d cycles (%.3f ms simulated)\n",
			sr.Workload, threads, sr.WallCycles, sr.WallSec*1e3)
		if sr.Samples > 0 {
			fmt.Printf("mem accesses: %d; %s samples: %d; Eq.(1) accuracy: %.2f%%\n",
				sr.MemAccesses, strings.ToUpper(sr.Backend), sr.Samples, 100*sr.Accuracy)
			fmt.Printf("trace MD5: %s (%d samples, %d blocks, %d bytes on the daemon)\n",
				sr.TraceMD5, sr.TraceSamples, sr.TraceBlocks, sr.TraceBytes)
			if err := report.RenderAll(os.Stdout, sr.Tables...); err != nil {
				return err
			}
			fmt.Printf("sampled latency percentiles: p50=%.0f p90=%.0f p99=%.0f cycles\n",
				sr.LatP50, sr.LatP90, sr.LatP99)
		}
		// Counters-mode temporal series arrive as data; write the same
		// CSVs a local run would.
		base := cfg.Name
		if multi {
			base = cfg.Name + "." + sr.Name
		}
		if sr.Bandwidth != nil {
			if err := writeSeries(base+".bandwidth.csv", sr.Bandwidth); err != nil {
				return err
			}
		}
		if sr.Capacity != nil {
			if err := writeSeries(base+".capacity.csv", sr.Capacity); err != nil {
				return err
			}
		}
		if cfg.TraceOut != "" && sr.TraceBytes > 0 {
			path := cfg.TraceOut
			if multi {
				path = insertName(path, sr.Name)
			}
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			opt := service.NewTraceOptions()
			opt.Scenario = sr.Name
			n, _, err := client.DownloadTrace(ctx, info.ID, opt, f)
			f.Close()
			if err != nil {
				return err
			}
			// Verify the bytes that actually landed on disk — a
			// corrupt download must fail the process, not just print;
			// scripts key on the exit code for the byte-identical
			// contract. (Comparing the response header against the
			// result doc would be vacuous: both come from the same
			// daemon field.)
			if err := verifyDownload(path, sr.TraceMD5); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d bytes streamed, MD5 %s verified)\n", path, n, sr.TraceMD5)
		}
	}
	return nil
}

// verifyDownload re-opens a downloaded v2 trace and recomputes its
// payload checksum, requiring footer, recomputed hash, and the
// daemon-advertised hash to agree.
func verifyDownload(path, wantHex string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := nmo.OpenTraceV2(f)
	if err != nil {
		return fmt.Errorf("downloaded trace %s is not a valid v2 file: %w", path, err)
	}
	sum, err := postproc.Summarize(postproc.From(rd), true)
	if err != nil {
		return fmt.Errorf("downloaded trace %s: %w", path, err)
	}
	got := fmt.Sprintf("%x", sum.MD5)
	if got != wantHex || sum.MD5 != rd.MD5() {
		return fmt.Errorf("downloaded trace %s: payload MD5 %s, footer %x, daemon advertised %s (corrupt download)",
			path, got, rd.MD5(), wantHex)
	}
	return nil
}

// report1 prints one profile's summary tables and writes its trace and
// series files under the given base name.
func report1(prof *nmo.Profile, cfg nmo.Config, base string) error {
	fmt.Printf("workload %s, %d threads: wall %d cycles (%.3f ms simulated)\n",
		prof.Workload, prof.Threads, prof.Wall, prof.WallSec*1e3)
	if cfg.Enable {
		fmt.Printf("mem accesses (perf stat): %d; bus accesses: %d; arithmetic intensity: %.4f flops/B\n",
			prof.MemAccesses, prof.BusAccesses, prof.ArithmeticIntensity())
	}
	if cfg.Mode.Sampling() {
		label := strings.ToUpper(string(prof.Backend))
		if label == "" {
			label = "SPE"
		}
		fmt.Printf("%s: %d selected, %d processed, %d collisions, %d truncated, %d invalid-skipped\n",
			label, prof.Sampler.Selected, prof.Sampler.Processed, prof.Sampler.Collisions,
			prof.Sampler.TruncatedHW, prof.Sampler.SkippedInvalid)
		if prof.Backend == nmo.BackendPEBS {
			fmt.Printf("PEBS loss/skew: %d DS-dropped, %d kernel-truncated, mean skid %.2f ops\n",
				prof.Sampler.Dropped, prof.Kernel.TruncatedRecords,
				float64(prof.Sampler.SkidTotal)/float64(max(prof.Sampler.Selected, 1)))
		}
		fmt.Printf("Eq.(1) accuracy: %.2f%%\n",
			100*nmo.Accuracy(prof.MemAccesses, prof.Sampler.Processed, cfg.EffectivePeriod()))
		// The streamed branch only applies when the run actually wrote
		// the file; with profiling disabled no sinks exist and the
		// legacy path below still renders its (empty) tables.
		if cfg.TraceOut != "" && cfg.Enable {
			// Streamed run: the samples are on disk, not in memory; the
			// tables below come from one out-of-core pass over the file.
			fmt.Printf("trace MD5: %x (%d samples streamed to %s)\n",
				prof.MD5, prof.Sampler.Processed, cfg.TraceOut)
			if err := reportStreamed(cfg.TraceOut); err != nil {
				return err
			}
		} else if err := reportCollected(prof, base); err != nil {
			return err
		}
	}
	if cfg.Mode.Counters() {
		if err := writeSeries(base+".bandwidth.csv", &prof.Bandwidth); err != nil {
			return err
		}
		if cfg.TrackRSS {
			if err := writeSeries(base+".capacity.csv", &prof.Capacity); err != nil {
				return err
			}
		}
	}
	return nil
}

// reportCollected renders the sample tables of an in-memory trace and
// writes its CSV/binary files.
func reportCollected(prof *nmo.Profile, base string) error {
	fmt.Printf("trace MD5: %x (%d samples stored)\n", prof.MD5, len(prof.Trace.Samples))
	if prof.TraceTruncated > 0 {
		fmt.Printf("WARNING: %d samples dropped at the MaxSamples cap (stream with -trace-out to keep them all)\n",
			prof.TraceTruncated)
	}

	sum, err := postproc.Summarize(postproc.From(prof.Trace), false)
	if err != nil {
		return err
	}
	if err := renderSummary(sum); err != nil {
		return err
	}

	f, err := os.Create(base + ".trace.csv")
	if err != nil {
		return err
	}
	if err := prof.Trace.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	f.Close()
	fb, err := os.Create(base + ".trace.bin")
	if err != nil {
		return err
	}
	if err := prof.Trace.WriteBinary(fb); err != nil {
		fb.Close()
		return err
	}
	fb.Close()
	fmt.Printf("wrote %s.trace.csv and %s.trace.bin\n", base, base)
	return nil
}

// reportStreamed renders the same sample tables from a v2 trace file,
// out-of-core: one scan feeds every aggregation, and memory stays
// bounded by one block regardless of the trace size.
func reportStreamed(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := nmo.OpenTraceV2(f)
	if err != nil {
		return err
	}
	// No checksum needed here: the run just reported its rolling MD5.
	sum, err := postproc.Summarize(postproc.From(rd), false)
	if err != nil {
		return err
	}
	if err := renderSummary(sum); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d samples, %d blocks; inspect with nmostat -trace)\n",
		path, rd.TotalSamples(), rd.NumBlocks())
	return nil
}

// renderSummary prints the sample tables both report paths share:
// samples by region, samples by memory level (the SPE data-source
// view) and the sampled latency percentiles.
func renderSummary(sum *postproc.Summary) error {
	t := &report.Table{Title: "Samples by region", Headers: []string{"region", "count"}}
	for _, g := range sum.ByRegion.Groups() {
		t.AddRow(g.Key, g.Count)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if err := report.LevelTable(os.Stdout, sum.Levels.By); err != nil {
		return err
	}
	fmt.Printf("sampled latency percentiles: p50=%.0f p90=%.0f p99=%.0f cycles\n",
		sum.Lat.Percentile(50), sum.Lat.Percentile(90), sum.Lat.Percentile(99))
	return nil
}

// insertName inserts a workload name before the path's extension
// ("out.nmo2" + "cfd" -> "out.cfd.nmo2"), keeping multi-workload
// streams from clobbering one file.
func insertName(path, name string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + name + ext
}

func writeSeries(path string, s *nmo.Series) error {
	if len(s.Points) == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Printf("wrote %s\n", path)
	return s.WriteCSV(f)
}
