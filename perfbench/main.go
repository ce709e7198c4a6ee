// Command perfbench is the repository's benchmark. It runs one workload
// as a closed loop of batches for a fixed time and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 70, "failed": 0, "metrics": {"wall_s": {"value": 0.91, "unit": "s"}, ...}}
//
// The three workloads:
//
//   - composite: the vaxrepro path. The five §2.2 profiles boot under
//     vmos one after another, their seeds shifted by the benchmark seed,
//     step in fixed chunks, and their summed histogram is reduced by
//     experiments.RunAll. Translation, the timed model, the monitor probe
//     and the vmos hook all carry their real shares here.
//   - bare: the vaxsim -program path. Each profile's first program,
//     generated without system services, runs on a bare machine with
//     memory management off and no OS. A translation or vmos-hook change
//     must show no change here; a decode, execute, cache or probe change
//     shows its largest share.
//   - fleet: the durable vaxfarm path, one worker per CPU, a checkpoint
//     root owned by the run, and one scripted worker death in the first
//     instance its victim runs. Only here do checkpoint encoding and farm
//     dispatch, rescue and merge do work.
//
// The traced run (-trace 1) wraps or replays the layers' public entry
// points only, alternating untraced and traced batches so the tracing
// overhead is measured in the same process. METRICS.md maps each
// per-layer metric to the end-to-end metric and workload it should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload composite --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vax780/internal/paper"
	"vax780/internal/workload"
)

func main() {
	name := flag.String("workload", "", "workload: composite, bare or fleet")
	seed := flag.Int64("seed", 0, "benchmark seed")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span traces and the run's scratch files")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload composite|bare|fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, runConfig{
		seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out, sc: benchScale,
	}, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

type runConfig struct {
	seed    int64
	seconds int
	traced  bool
	out     string
	sc      scale
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each by name and unit as it goes.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func (r *report) put(name, unit string, v float64, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "  %-30s %14.6g %-14s %s\n", name, v, unit, note)
}

// timing reports the median of xs with its 90th percentile and count.
func (r *report) timing(name, unit string, xs []float64, what string) {
	r.put(name, unit, median(xs), fmt.Sprintf("median of %d %s, p90 %.6g", len(xs), what, quantile(xs, 0.9)))
}

func run(w workloadDef, cfg runConfig, stdout, stderr io.Writer) (*result, error) {
	h := host()
	runID := fmt.Sprintf("%s-seed%d-trace%t-%d-%d", w.name, cfg.seed, cfg.traced, os.Getpid(), time.Now().UnixNano())
	dir := filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{sc: cfg.sc, seed: cfg.seed, dir: dir, gens: filepath.Join(dir, "generations"), stderr: stderr}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d trace=%t seconds=%d run=%s\n",
		w.name, cfg.seed, cfg.traced, cfg.seconds, runID)
	fmt.Fprintf(stdout, "host numcpu=%d gomaxprocs=%d goarch=%s go=%s cpu=%q\n",
		h.NumCPU, h.GOMAXPROCS, h.GOARCH, h.GoVersion, h.Model)
	fmt.Fprintf(stdout, "load %s\n", describe(w, cfg.sc))

	var res *result
	var err error
	if cfg.traced {
		res, err = b.traced(w, cfg, h, runID, stdout)
	} else {
		res, err = b.untraced(w, cfg, stdout)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "  %-30s %14.6g %-14s %d of %d runs and output checks failed (not in the result line: it carries attempted and failed)\n",
		"fail_ratio", safeDiv(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(line))
	return res, nil
}

func describe(w workloadDef, sc scale) string {
	switch w.name {
	case "fleet":
		return fmt.Sprintf("closed loop of farm sweeps: %d instances x %d cycles, %d workers, checkpoint every %d cycles, one worker death",
			fleetInstanceCount(sc, fleetWorkers()), sc.budget, fleetWorkers(), sc.fleetEvery)
	default:
		return fmt.Sprintf("closed loop of batches on one goroutine: %d machines x %d cycles, %s in chunks of %d cycles",
			len(workload.All()), sc.budget, w.runSpan, sc.chunk)
	}
}

// tally adds a batch's runs and checks to the result and reports its
// failures.
func (b *bench) tally(res *result, o *batch) {
	res.Attempted += o.ops
	res.Failed += o.failed
	for _, p := range o.problems {
		fmt.Fprintln(b.stderr, "perfbench: check failed:", p)
	}
}

// loop runs batches until the window closes (at least one), each from a
// collected heap so one batch's garbage does not land in the next.
func loop(seconds int, each func()) {
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for first := true; first || time.Now().Before(deadline); first = false {
		runtime.GC()
		each()
	}
}

// untraced is the end-to-end run.
func (b *bench) untraced(w workloadDef, cfg runConfig, stdout io.Writer) (*result, error) {
	setups, _, err := b.setUp(w)
	if err != nil {
		return nil, err
	}
	var batches []*batch
	loop(cfg.seconds, func() { batches = append(batches, b.runBatch(w)) })

	res := &result{Metrics: map[string]metric{}}
	r := &report{w: stdout, metrics: res.Metrics}
	var walls, rates, cpuRates, chunks []float64
	for _, o := range batches {
		b.tally(res, o)
		walls = append(walls, o.wall.Seconds())
		rates = append(rates, safeDiv(float64(o.cycles)/1e6, o.stepping.Seconds()))
		cpuRates = append(cpuRates, safeDiv(float64(o.cycles)/1e6, o.cpu.Seconds()))
		chunks = append(chunks, o.chunks...)
	}
	first := batches[0]
	for i, o := range batches[1:] {
		ck := &batch{}
		ck.check(o.hash == first.hash, "batch %d histogram differs from batch 0", i+1)
		b.tally(res, ck)
	}
	chunkWhat := "chunks"
	if w.name == "fleet" {
		chunkWhat = "farm sweeps' process CPU time per chunk (not timed chunks)"
	}
	r.timing("setup_s", "s", setups, fmt.Sprintf("samples, each the mean of %d set-ups", w.setupGroup))
	r.timing("wall_s", "s", walls, "batches")
	r.timing("sim_mcycles_per_s", "Mcycles/s", rates, "batches")
	r.timing("sim_mcycles_per_cpu_s", "Mcycles/cpu-s", cpuRates, "batches")
	r.put("chunk_ms_p50", "ms", quantile(chunks, 0.5), fmt.Sprintf("over %d %s", len(chunks), chunkWhat))
	r.put("peak_rss_mb", "MB", peakRSSMB(), "getrusage maxrss over the whole run")

	// Printed but kept out of the result line. The tail chunk time swings
	// by more between runs on a shared host than any bound the result
	// line may carry; the fidelity figures read the same for a seed on
	// every run, move by tens of percent between seeds, and read 0 in a
	// healthy run.
	info := func(name, unit string, v float64, note string) {
		fmt.Fprintf(stdout, "  %-30s %14.6g %-14s %s\n", name, v, unit, note)
	}
	info("chunk_ms_p90", "ms", quantile(chunks, 0.9), fmt.Sprintf("over %d %s", len(chunks), chunkWhat))
	info("cpi_err_pct", "%", first.cpiErr, fmt.Sprintf("simulated CPI vs %.3f, seed %d", paper.CPI, b.seed))
	if w.name == "composite" {
		info("shape_checks_failed", "count", float64(first.shapeFails), fmt.Sprintf("of %d, seed %d", first.shapeChecks, b.seed))
		held := *b
		held.seed += heldOutShift
		runtime.GC()
		o := held.runBatch(w)
		b.tally(res, o)
		info("heldout.cpi_err_pct", "%", o.cpiErr, fmt.Sprintf("held-out seed %d", held.seed))
		info("heldout.shape_checks_failed", "count", float64(o.shapeFails), fmt.Sprintf("of %d, held-out seed %d", o.shapeChecks, held.seed))
	}
	return res, nil
}
