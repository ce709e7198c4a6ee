package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"

	"vax780/internal/cache"
	"vax780/internal/farm"
	"vax780/internal/tb"
	"vax780/internal/workload"
)

// traced is the per-layer run. Untraced and traced batches alternate, so
// the tracing overhead is measured against batches of the same process.
// Every traced batch must reproduce the untraced histogram bit for bit
// (the taps are passive) and repeat the first traced batch's counts
// exactly (they are deterministic); both are output checks.
func (b *bench) traced(w workloadDef, cfg runConfig, h hostInfo, runID string, stdout io.Writer) (*result, error) {
	tr := newTracer(runID)
	// The set-up runs traced, as the untraced run times it, fresh seeds
	// and all, so workload.prepare_s covers the work setup_s does.
	b.tr = tr
	_, prep, err := b.setUp(w)
	b.tr = nil
	if err != nil {
		return nil, err
	}
	var plain, traced []*batch
	var layers []layerBatch
	loop(cfg.seconds, func() {
		b.tr = nil
		plain = append(plain, b.runBatch(w))
		runtime.GC()
		b.tr = tr
		tr.capture = len(traced) == 0
		o := b.runBatch(w)
		b.tr = nil
		lb := tr.batch
		if lb.stepping == 0 { // fleet sets it: its replayed instances' stepping
			lb.stepping = o.stepping
		}
		traced = append(traced, o)
		layers = append(layers, lb)
	})

	res := &result{Metrics: map[string]metric{}}
	for _, o := range append(append([]*batch(nil), plain...), traced...) {
		b.tally(res, o)
	}
	ck := &batch{}
	ref := plain[0]
	for i, o := range plain[1:] {
		ck.check(o.hash == ref.hash, "untraced batch %d histogram differs from batch 0", i+1)
	}
	for i, o := range traced {
		ck.check(o.hash == ref.hash, "traced batch %d histogram differs from the untraced one", i)
		ck.check(layers[i].counts == layers[0].counts, "traced batch %d layer counts differ from traced batch 0", i)
		if o.farm != nil && traced[0].farm != nil {
			f, f0 := o.farm, traced[0].farm
			ck.check(f.Completed == f0.Completed && f.Rescued == f0.Rescued && f.Shed == f0.Shed &&
				f.Lost == f0.Lost && f.Failures == f0.Failures && f.Cycles == f0.Cycles,
				"traced batch %d farm counts differ from traced batch 0", i)
		}
	}

	// Checkpoint generations: the bare batches saved theirs while
	// capturing; composite and fleet leave complete ones via the run
	// supervisor (under the fleet's root for fleet).
	b.tr = tr
	switch w.name {
	case "composite":
		err = supervisedGenerations(b.gens, shifted(b.seed), b.sc.chunk)
	case "fleet":
		b.gens = filepath.Join(b.dir, "fleet", "generations")
		err = supervisedGenerations(b.gens, fleetInstances(len(workload.All())), b.sc.fleetEvery)
	}
	ck.check(err == nil, "writing checkpoint generations: %v", err)
	g, err := replayGenerations(tr, b.gens)
	ck.check(err == nil, "checkpoint replay: %v", err)
	b.tr = nil
	b.tally(res, ck)

	r := &report{w: stdout, metrics: res.Metrics}
	reportLayers(r, w, plain, traced, layers, prep, tr.replay, g)
	if err := tr.write(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, b.seed), h, b.seed); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), cfg.out)
	return res, nil
}

// reportLayers derives every per-layer metric. Counts come from the
// first traced batch (all traced batches agree); times are medians over
// the traced batches; per-call costs come from the replays.
func reportLayers(r *report, w workloadDef, plain, traced []*batch, layers []layerBatch, prep []float64, rt replayTotals, g genReplay) {
	c := layers[0].counts
	instr := float64(c.Instructions)
	cycles := float64(c.Cycles)
	minstr := instr / 1e6
	n := len(layers)
	perInstr := func(x uint64) float64 { return safeDiv(float64(x), instr) }
	ratio := func(miss, hit uint64) float64 { return safeDiv(float64(miss), float64(miss+hit)) }
	spanS := func(name string) []float64 {
		xs := make([]float64, n)
		for i, lb := range layers {
			xs[i] = lb.spanTime[name].Seconds()
		}
		return xs
	}
	batchesNote := fmt.Sprintf("first of %d traced batches (all equal)", n)
	steppingS := make([]float64, n)
	hookNs := make([]float64, n)
	clock := clockCost()
	for i, lb := range layers {
		steppingS[i] = lb.stepping.Seconds()
		if lb.hookN > 0 {
			hookNs[i] = max(0, lb.hookNs/float64(lb.hookN)-clock)
		}
	}
	stepNs := median(steppingS) * 1e9

	// mmu / mem
	r.put("mem.reads_per_instr", "1/instr", perInstr(c.MemReads), batchesNote)
	r.put("mmu.translate_ns", "ns", rt.translate.nsPerCall(), fmt.Sprintf("replay of %.0f captured addresses through mmu.Translate", rt.translate.calls))
	// tb
	r.put("tb.lookups_per_instr", "1/instr", perInstr(c.TBLookups), batchesNote)
	r.put("tb.miss_ratio_i", "ratio", ratio(c.TBMisses[tb.IStream], c.TBHits[tb.IStream]), batchesNote)
	r.put("tb.miss_ratio_d", "ratio", ratio(c.TBMisses[tb.DStream], c.TBHits[tb.DStream]), batchesNote)
	r.put("tb.flushes_per_minstr", "1/Minstr", safeDiv(float64(c.TBFlushes), minstr), batchesNote)
	r.put("tb.lookup_ns", "ns", rt.tbLookup.nsPerCall(), fmt.Sprintf("replay of %.0f captured addresses into a fresh TB", rt.tbLookup.calls))
	// vmos
	hook := median(hookNs)
	r.put("vmos.hook_calls_per_instr", "1/instr", perInstr(c.HookCalls), batchesNote)
	r.put("vmos.hook_ns", "ns", hook, fmt.Sprintf("median of %d traced batches, one call in %d timed, clock cost %.0f ns removed", n, hookSampleMask+1, clock))
	r.put("vmos.hook_share", "ratio", safeDiv(hook*float64(c.HookCalls), stepNs), "hook_ns x calls / traced stepping time")
	r.put("vmos.ctx_switches_per_minstr", "1/Minstr", safeDiv(float64(c.CtxSwitches), minstr), batchesNote)
	r.put("vmos.interrupts_per_minstr", "1/Minstr", safeDiv(float64(c.Interrupts), minstr), batchesNote)
	// cache / mem
	r.put("cache.reads_per_instr", "1/instr", perInstr(c.CacheReads), batchesNote)
	r.put("cache.writes_per_instr", "1/instr", perInstr(c.CacheWrites), batchesNote)
	r.put("cache.miss_ratio_i", "ratio", ratio(c.CacheMiss[cache.IStream], c.CacheHits[cache.IStream]), batchesNote)
	r.put("cache.miss_ratio_d", "ratio", ratio(c.CacheMiss[cache.DStream], c.CacheHits[cache.DStream]), batchesNote)
	r.put("cache.read_ns", "ns", rt.cacheRead.nsPerCall(), fmt.Sprintf("replay of %.0f captured references into a fresh cache", rt.cacheRead.calls))
	r.put("sbi.utilization", "ratio", safeDiv(float64(c.SBIBusy), cycles), batchesNote)
	r.put("wb.stall_cycles_per_instr", "cycles/instr", perInstr(c.WBStallCycles), batchesNote)
	// core probe
	probe := rt.probe.nsPerCall()
	r.put("core.probe_calls_per_cycle", "1/cycle", safeDiv(float64(c.ProbeCalls), cycles), batchesNote)
	r.put("core.probe_ns", "ns", probe, fmt.Sprintf("replay of %.0f captured µPCs into a fresh Monitor", rt.probe.calls))
	r.put("core.probe_share", "ratio", safeDiv(probe*float64(c.ProbeCalls), stepNs), "probe_ns x calls / traced stepping time")
	// cpu
	runS := spanS(w.runSpan)
	r.timing("cpu.run_s", "s", runS, "traced batches' "+w.runSpan+" span self time")
	r.put("cpu.ns_per_instr", "ns", safeDiv(median(runS)*1e9, instr), w.runSpan+" self time / instructions")
	r.put("cpu.ib_bytes_per_instr", "bytes/instr", perInstr(c.IBBytes), batchesNote)
	r.put("cpu.ib_redirects_per_instr", "1/instr", perInstr(c.IBRedirects), batchesNote)
	r.put("cpu.allocs_per_mcycle", "allocs/Mcycle", safeDiv(float64(layers[0].mallocs), cycles/1e6), "heap allocations while stepping, first traced batch")
	r.put("cpu.bytes_per_mcycle", "bytes/Mcycle", safeDiv(float64(layers[0].bytes), cycles/1e6), "heap bytes while stepping, first traced batch")
	// workload, core, experiments
	r.timing("workload.prepare_s", "s", prep, fmt.Sprintf("set-up samples' %s spans, per set-up of %d", w.prepareSpan, w.setupGroup))
	r.timing("core.reduce_s", "s", spanS("core.Reduce"), "traced batches")
	r.timing("core.merge_s", "s", spanS("Histogram.Add"), "traced batches")
	r.timing("core.hist_save_s", "s", spanS("Histogram.Save"), "traced batches")
	r.timing("core.hist_load_s", "s", spanS("LoadHistogram"), "traced batches")
	r.timing("experiments.run_all_s", "s", spanS("experiments.RunAll"), "traced batches")
	// checkpoint
	r.timing("checkpoint.snapshot_bytes", "bytes", g.bytes, "snapshot generations")
	r.timing("checkpoint.encode_s", "s", g.encodeS, "snapshot generations")
	r.timing("checkpoint.decode_s", "s", g.decodeS, "snapshot generations")
	// farm
	var util []float64
	f := traced[0].farm
	if f != nil {
		for _, o := range traced {
			util = append(util, safeDiv(o.cpu.Seconds(), float64(o.workers)*o.stepping.Seconds()))
		}
	} else {
		f = &farm.Result{}
	}
	r.put("farm.cpu_utilization", "ratio", median(util), fmt.Sprintf("CPU s / (workers x farm.Run wall), median of %d", len(util)))
	r.put("farm.completed_ratio", "ratio", safeDiv(float64(f.Completed), float64(len(f.Ledger))), batchesNote)
	r.put("farm.rescued", "count", float64(f.Rescued), batchesNote)
	r.put("farm.shed", "count", float64(f.Shed), batchesNote)
	r.put("farm.workers_lost", "count", float64(f.Lost), batchesNote)
	r.put("farm.failures", "count", float64(f.Failures), batchesNote)
	// harness
	var plainRates, tracedRates []float64
	for _, o := range plain {
		plainRates = append(plainRates, safeDiv(float64(o.cycles), o.stepping.Seconds()))
	}
	for _, o := range traced {
		tracedRates = append(tracedRates, safeDiv(float64(o.cycles), o.stepping.Seconds()))
	}
	r.put("trace_overhead_pct", "%", 100*(safeDiv(median(plainRates), median(tracedRates))-1),
		fmt.Sprintf("untraced vs traced sim_mcycles_per_s, medians of %d and %d batches", len(plain), len(traced)))
}
