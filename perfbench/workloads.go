package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vax780/internal/asm"
	"vax780/internal/checkpoint"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/experiments"
	"vax780/internal/farm"
	"vax780/internal/paper"
	"vax780/internal/vax"
	"vax780/internal/workload"
)

// scale fixes the size of one batch. It is part of each workload's
// definition: chunked stepping overshoots a chunk by up to one
// instruction, so the chunk schedule shapes the histogram, and traced
// and untraced batches must share it.
type scale struct {
	budget       uint64 // cycles per machine: each composite and bare profile, each fleet instance
	chunk        uint64 // cycles per Session.Run or Machine.Run call
	fleetEvery   uint64 // fleet checkpoint period: the farm's chunk
	instances    int    // fleet instances, at least; see fleetInstanceCount
	setupSamples int    // setup_s samples, each a group of workloadDef.setupGroup set-ups
}

// benchScale is what the benchmark runs: 10 M simulated cycles per
// composite or bare batch, 20 M per fleet batch on up to five CPUs.
var benchScale = scale{
	budget:       2_000_000,
	chunk:        100_000,
	fleetEvery:   500_000,
	instances:    10,
	setupSamples: 9,
}

const (
	// setupSeedStride moves every timed set-up after the first onto
	// fresh programs, so each one pays generation and assembly instead
	// of hitting the workload package's generated-program cache.
	setupSeedStride = 7_000_003
	// heldOutShift moves the composite's held-out fidelity product off
	// the benchmark seed.
	heldOutShift = 7919
	// bareMemBytes is the bare machine's memory, as vaxsim -program uses.
	bareMemBytes = 1 << 20
)

// batch is one closed-loop pass over a workload: everything it took to
// produce the workload's full product, and whether the product checked.
type batch struct {
	wall     time.Duration
	stepping time.Duration // host time inside Run calls (fleet: farm.Run)
	cpu      time.Duration // process CPU time over the same windows
	cycles   uint64
	chunks   []float64 // ms per chunk
	hash     [32]byte  // SHA-256 of the product histogram's Save output
	cpiErr   float64   // |CPI - paper.CPI| / paper.CPI, in percent

	shapeFails, shapeChecks int
	ops, failed             int
	problems                []string

	farm    *farm.Result
	workers int
}

// check counts one output check (or one run) and records a failure.
func (o *batch) check(ok bool, format string, args ...any) bool {
	o.ops++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// bench is one run of one workload.
type bench struct {
	sc   scale
	seed int64
	dir  string  // scratch directory owned by this run
	tr   *tracer // nil while a batch runs untraced

	stderr io.Writer // where failed checks are reported

	// aligned ends every chunk at a multiple of the chunk size, the way
	// the run supervisor chunks a farm instance, instead of a chunk's
	// length after the previous one's overshoot.
	aligned bool

	// gens is where a traced run leaves checkpoint generations for the
	// encode/decode replay.
	gens string
}

type workloadDef struct {
	name string
	// runSpan names the layer entry point each chunk is stepped through.
	runSpan string
	// prepareSpan names the workload-layer set-up call.
	prepareSpan string
	// setupGroup is how many set-ups one setup_s sample times together,
	// enough that a sample takes about 0.1 s and timer and collector
	// noise stay small beside it.
	setupGroup int
	setup      func(b *bench, rep int) error
	run        func(b *bench, o *batch)
}

var workloads = []workloadDef{
	{"composite", "Session.Run", "workload.Prepare", 5, (*bench).setupComposite, (*bench).composite},
	{"bare", "Machine.Run", "workload.Generate", 30, (*bench).setupBare, (*bench).bare},
	{"fleet", "Session.Run", "workload.Prepare", 3, (*bench).setupFleet, (*bench).fleet},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runBatch runs one batch of w, traced when b.tr is set.
func (b *bench) runBatch(w workloadDef) *batch {
	o := &batch{}
	root := b.tr.startBatch(w.name)
	start := time.Now()
	w.run(b, o)
	o.wall = time.Since(start)
	b.tr.endBatch(root)
	return o
}

// shifted returns the five §2.2 profiles with their seeds moved by shift.
func shifted(shift int64) []workload.Profile {
	ps := workload.All()
	for i := range ps {
		ps[i].Seed += shift
	}
	return ps
}

func cpiErr(cpi float64) float64 {
	return 100 * math.Abs(cpi-paper.CPI) / paper.CPI
}

// step runs one machine to the cycle budget in fixed chunks through run,
// the layer entry point named by name, timing every chunk.
func (b *bench) step(o *batch, name string, m *cpu.Machine, run func(uint64) cpu.RunResult, t *tap) error {
	var mallocs, allocBytes uint64
	if t != nil {
		mallocs, allocBytes = memSample()
	}
	captureAt := b.sc.budget / 2
	cpu0 := cpuTime()
	var err error
	for m.Cycle() < b.sc.budget {
		if t != nil {
			// Capture the first chunk past the half-way mark: by then the
			// caches, TB and scheduler are in their steady state.
			t.capturing = b.tr.capture && m.Cycle() >= captureAt && len(t.upcs) == 0
		}
		id := b.tr.begin(name)
		start := time.Now()
		n := b.sc.chunk
		if b.aligned {
			n -= m.Cycle() % b.sc.chunk
		}
		r := run(n)
		d := time.Since(start)
		b.tr.end(id)
		o.stepping += d
		o.chunks = append(o.chunks, float64(d)/1e6)
		if r.Err != nil {
			err = fmt.Errorf("machine error at cycle %d: %w", m.Cycle(), r.Err)
			break
		}
		if r.Halted {
			err = fmt.Errorf("machine halted at cycle %d (%s)", m.Cycle(), m.Reason())
			break
		}
	}
	o.cpu += cpuTime() - cpu0
	o.cycles += m.Cycle()
	if t != nil {
		t.capturing = false
		m2, b2 := memSample()
		b.tr.batch.mallocs += m2 - mallocs
		b.tr.batch.bytes += b2 - allocBytes
	}
	return err
}

// attach puts a tap on m when the batch is traced.
func (b *bench) attach(m *cpu.Machine) *tap {
	if b.tr == nil {
		return nil
	}
	return newTap(m, b.tr.capture)
}

// finishTap folds a tap's counts into the traced batch and, on the
// capturing batch, replays its streams while the machine is still live.
func (b *bench) finishTap(t *tap) {
	lb := &b.tr.batch
	lb.counts.add(t.finish())
	lb.hookNs += t.hookNs
	lb.hookN += t.hookN
	if b.tr.capture {
		b.tr.replay.streams(t)
	}
}

// roundTrip saves the product histogram, loads it back and checks that
// nothing changed; the saved bytes' hash identifies the product.
func (b *bench) roundTrip(o *batch, h *core.Histogram) {
	var saved bytes.Buffer
	err := b.tr.call("Histogram.Save", func() error { return h.Save(&saved) })
	if !o.check(err == nil, "Histogram.Save: %v", err) {
		return
	}
	o.hash = sha256.Sum256(saved.Bytes())
	var back *core.Histogram
	err = b.tr.call("LoadHistogram", func() (err error) {
		back, err = core.LoadHistogram(bytes.NewReader(saved.Bytes()))
		return err
	})
	if !o.check(err == nil, "LoadHistogram: %v", err) {
		return
	}
	var again bytes.Buffer
	err = back.Save(&again)
	o.check(err == nil && bytes.Equal(saved.Bytes(), again.Bytes()),
		"histogram changed across Save/LoadHistogram (%v)", err)
}

// setUp times w's set-up before the batches: setupSamples samples, each
// the mean over w.setupGroup set-ups, in seconds per set-up. Every set-up
// starts from a collected heap, outside the timer, so one set-up's
// garbage does not land in the next. The first set-up uses the benchmark
// seed and builds the programs the batches reuse; every later one uses
// fresh seeds, so each pays generation and assembly rather than hitting
// the generated-program cache. When the run is traced each sample is a
// traced batch, and prep holds its time inside w.prepareSpan calls, again
// per set-up.
func (b *bench) setUp(w workloadDef) (total, prep []float64, err error) {
	for i := 0; i < b.sc.setupSamples; i++ {
		root := b.tr.startBatch("set-up")
		var d time.Duration
		for j := 0; j < w.setupGroup; j++ {
			runtime.GC()
			start := time.Now()
			if err := w.setup(b, i*w.setupGroup+j); err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
			d += time.Since(start)
		}
		b.tr.endBatch(root)
		total = append(total, d.Seconds()/float64(w.setupGroup))
		if b.tr != nil {
			prep = append(prep, b.tr.batch.spanTime[w.prepareSpan].Seconds()/float64(w.setupGroup))
		}
	}
	return total, prep, nil
}

// --- composite: the vaxrepro path ---------------------------------------

func (b *bench) setupComposite(rep int) error {
	for _, p := range shifted(b.seed + int64(rep)*setupSeedStride) {
		err := b.tr.call("workload.Prepare", func() error {
			_, err := workload.Prepare(p, b.sc.budget, cpu.Config{})
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) composite(o *batch) {
	comp, ok := b.sessions(o, shifted(b.seed), b.sc.chunk, false)
	if !ok {
		return
	}
	var ctx *experiments.Context
	b.tr.span("experiments.NewContextFromComposite", func() {
		ctx = experiments.NewContextFromComposite(comp, cpu.Config{})
	})
	if b.tr != nil {
		// The context builds its report inside; time core.Reduce alone.
		b.tr.span("core.Reduce", func() { core.Reduce(comp.Hist, cpu.CS) })
	}
	var outs []experiments.Outcome
	b.tr.span("experiments.RunAll", func() { outs = experiments.RunAll(ctx) })
	for _, out := range outs {
		o.shapeFails += out.Fails
		o.shapeChecks += len(out.Checks)
	}
	o.cpiErr = cpiErr(ctx.Rep.CPI())
	b.roundTrip(o, comp.Hist)
}

// sessions boots each profile under vmos, one after another, steps it to
// the budget in chunks of chunk cycles and sums the histograms.
func (b *bench) sessions(o *batch, ps []workload.Profile, chunk uint64, aligned bool) (*workload.Composite, bool) {
	sc := b.sc
	sc.chunk = chunk
	bs := *b
	bs.sc = sc
	bs.aligned = aligned
	comp := &workload.Composite{Hist: &core.Histogram{}}
	for _, p := range ps {
		var s *workload.Session
		err := b.tr.call("workload.Prepare", func() (err error) {
			s, err = workload.Prepare(p, sc.budget, cpu.Config{})
			return err
		})
		if !o.check(err == nil, "%s: %v", p.Name, err) {
			return nil, false
		}
		m := s.Machine()
		t := b.attach(m)
		err = bs.step(o, "Session.Run", m, s.Run, t)
		if !o.check(err == nil, "%s (seed %d): %v", p.Name, p.Seed, err) {
			return nil, false
		}
		res := s.Result()
		if t != nil {
			res.Hist = t.mon.Snapshot()
			b.finishTap(t)
		}
		comp.Runs = append(comp.Runs, res)
		b.tr.span("Histogram.Add", func() { comp.Hist.Add(res.Hist) })
	}
	return comp, true
}

// --- bare: the vaxsim -program path -------------------------------------

// bareProgram is profile p's first program with system services removed:
// it runs without an OS.
func bareProgram(p workload.Profile, shift int64) workload.GenConfig {
	mix := p.Mix
	mix.Syscall = 0
	return workload.GenConfig{
		Mix:       mix,
		Blocks:    p.Blocks,
		LoopIter:  p.LoopIter,
		StringLen: p.StringLen,
		Seed:      p.Seed + shift,
	}
}

// bareMachine loads im into a fresh machine with memory management off,
// as vaxsim -program does, with a monitor attached.
func bareMachine(im *asm.Image) (*cpu.Machine, *core.Monitor) {
	m := cpu.New(cpu.Config{MemBytes: bareMemBytes})
	mon := core.NewMonitor()
	mon.Start()
	m.AttachProbe(mon)
	m.Mem.Load(im.Org, im.Bytes)
	m.R[vax.SP] = bareMemBytes
	m.SetPC(im.Org)
	return m, mon
}

func (b *bench) setupBare(rep int) error {
	for _, p := range workload.All() {
		cfg := bareProgram(p, b.seed+int64(rep)*setupSeedStride)
		var im *asm.Image
		err := b.tr.call("workload.Generate", func() (err error) { im, err = workload.Generate(cfg); return err })
		if err != nil {
			return err
		}
		bareMachine(im)
	}
	return nil
}

func (b *bench) bare(o *batch) {
	sum := &core.Histogram{}
	var runs []*workload.Result
	for _, p := range workload.All() {
		cfg := bareProgram(p, b.seed)
		var im *asm.Image
		err := b.tr.call("workload.Generate", func() (err error) { im, err = workload.Generate(cfg); return err })
		if !o.check(err == nil, "%s: %v", p.Name, err) {
			return
		}
		m, mon := bareMachine(im)
		t := b.attach(m)
		err = b.step(o, "Machine.Run", m, m.Run, t)
		if !o.check(err == nil, "%s (seed %d): %v", p.Name, cfg.Seed, err) {
			return
		}
		hist := mon.Snapshot()
		if t != nil {
			hist = t.mon.Snapshot()
			b.finishTap(t)
			if b.tr.capture {
				err := b.saveBareGeneration(p, m, t.mon)
				o.check(err == nil, "%s: checkpoint: %v", p.Name, err)
			}
			runs = append(runs, &workload.Result{
				Profile: p, Hist: hist, Instructions: m.Instructions(), Cycles: m.Cycle(),
				Cache: m.Cache.Stats(), IB: m.IBStats(), TB: m.TLB.Stats(), HW: m.HW(),
			})
		}
		b.tr.span("Histogram.Add", func() { sum.Add(hist) })
	}
	var rep *core.Report
	b.tr.span("core.Reduce", func() { rep = core.Reduce(sum, cpu.CS) })
	o.cpiErr = cpiErr(rep.CPI())
	b.roundTrip(o, sum)
	if b.tr != nil {
		// Not part of the bare product: the reduction replayed over the
		// bare measurements so the experiments layer is timed here too.
		comp := &workload.Composite{Runs: runs, Hist: sum}
		b.tr.span("experiments.RunAll", func() {
			experiments.RunAll(experiments.NewContextFromComposite(comp, cpu.Config{}))
		})
	}
}

// saveBareGeneration writes the bare machine's complete state — there is
// no OS — as a checkpoint generation for the encode/decode replay.
func (b *bench) saveBareGeneration(p workload.Profile, m *cpu.Machine, mon *core.Monitor) error {
	st, err := m.ExportState()
	if err != nil {
		return err
	}
	d, err := checkpoint.Open(filepath.Join(b.gens, p.Name), 0)
	if err != nil {
		return err
	}
	_, err = d.Save(&checkpoint.Snapshot{
		Meta: checkpoint.Meta{
			Profile: p.Name, Seed: p.Seed, TotalCycles: b.sc.budget,
			Cycle: m.Cycle(), Machine: m.Config(),
		},
		CPU:     st,
		Monitor: mon.ExportState(),
	})
	return err
}

// --- fleet: the durable vaxfarm path ------------------------------------

// fleetWorkers is the farm's pool width: one worker per CPU, but at
// least two, so the scripted death leaves a survivor to rescue onto.
func fleetWorkers() int {
	if n := runtime.NumCPU(); n > 2 {
		return n
	}
	return 2
}

// fleetInstanceCount is the sweep's size: at least sc.instances and two
// per worker, so every worker is dispatched an instance, rounded up to
// whole rotations of the five profiles.
func fleetInstanceCount(sc scale, workers int) int {
	n := max(sc.instances, 2*workers)
	k := len(workload.All())
	return (n + k - 1) / k * k
}

// fleetKill scripts the sweep's one worker death from the seed: which
// worker, and at which of the last two checkpoint boundaries of the
// first instance it runs. The first instance is the only share every
// worker is sure to get: an instance runs far longer than a worker takes
// to start, so each of the first Workers instances dispatched goes to a
// distinct idle worker. The death thus lands on any host, however many
// workers there are and however the pool splits the rest.
func fleetKill(seed int64, workers int, sc scale) farm.Kill {
	u := uint64(seed)
	perInstance := int(sc.budget / sc.fleetEvery)
	return farm.Kill{
		Worker:      int(u % uint64(workers)),
		AfterChunks: max(1, perInstance-int(u/uint64(workers)%2)),
	}
}

func (b *bench) fleetConfig(root string) farm.Config {
	w := fleetWorkers()
	return farm.Config{
		Instances:       fleetInstanceCount(b.sc, w),
		Workers:         w,
		Cycles:          b.sc.budget,
		Root:            root,
		CheckpointEvery: b.sc.fleetEvery,
		Kills:           []farm.Kill{fleetKill(b.seed, w, b.sc)},
	}
}

// fleetInstances are the profiles farm instances 0..n-1 run, with the
// seeds the farm derives for them.
func fleetInstances(n int) []workload.Profile {
	all := workload.All()
	ps := make([]workload.Profile, n)
	for i := range ps {
		ps[i] = all[i%len(all)]
		ps[i].Seed += int64(i) * farm.SeedStride
	}
	return ps
}

// setupFleet builds the farm and its durable root and boots every
// instance the farm will run.
func (b *bench) setupFleet(rep int) error {
	root := filepath.Join(b.dir, "fleet")
	if err := os.RemoveAll(root); err != nil {
		return err
	}
	if err := os.MkdirAll(root, 0o777); err != nil {
		return err
	}
	cfg := b.fleetConfig(root)
	if _, err := farm.New(cfg); err != nil {
		return err
	}
	for _, p := range fleetInstances(cfg.Instances) {
		p.Seed += int64(rep) * setupSeedStride
		err := b.tr.call("workload.Prepare", func() error {
			_, err := workload.Prepare(p, b.sc.budget, cpu.Config{})
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) fleet(o *batch) {
	root := filepath.Join(b.dir, "fleet")
	if err := os.RemoveAll(root); !o.check(err == nil, "fleet root: %v", err) {
		return
	}
	cfg := b.fleetConfig(root)
	f, err := farm.New(cfg)
	if !o.check(err == nil, "farm.New: %v", err) {
		return
	}
	o.workers = cfg.Workers
	var res *farm.Result
	cpu0 := cpuTime()
	start := time.Now()
	err = b.tr.call("farm.Run", func() (err error) { res, err = f.Run(context.Background()); return err })
	o.stepping = time.Since(start)
	o.cpu = cpuTime() - cpu0
	o.check(err == nil, "farm.Run: %v", err)
	if res == nil {
		return
	}
	o.farm = res
	o.cycles = res.Cycles
	for _, oc := range res.Ledger {
		o.check(oc.Status == farm.StatusCompleted || oc.Status == farm.StatusRescued,
			"instance %d (%s): %s: %s", oc.ID, oc.Profile, oc.Status, oc.Cause)
	}
	o.check(res.Completed+res.Shed+res.Paused == cfg.Instances,
		"completed %d + shed %d + paused %d != %d instances", res.Completed, res.Shed, res.Paused, cfg.Instances)
	o.check(res.Lost == 1 && res.Rescued >= 1,
		"scripted worker death: %d workers lost, %d instances rescued, want 1 and at least 1", res.Lost, res.Rescued)
	sum := &core.Histogram{}
	b.tr.span("Histogram.Add", func() {
		for _, ps := range res.ByProfile {
			sum.Add(ps.Hist)
		}
	})
	o.check(*sum == *res.Merged, "merged histogram differs from the sum of the by-profile histograms")
	// The farm's chunks run inside it, out of reach of a timer, so a sweep
	// yields one figure: its process CPU time per chunk. It is
	// 1/sim_mcycles_per_cpu_s rescaled, not a timed chunk.
	if chunks := float64(res.Cycles) / float64(cfg.CheckpointEvery); chunks > 0 {
		o.chunks = []float64{float64(o.cpu) / 1e6 / chunks}
	}
	var rep *core.Report
	b.tr.span("core.Reduce", func() { rep = core.Reduce(res.Merged, cpu.CS) })
	o.cpiErr = cpiErr(rep.CPI())
	b.roundTrip(o, res.Merged)
	if b.tr != nil {
		b.fleetLayers(o, root)
	}
}

// fleetLayers measures the layers the farm steps through, which the farm
// does not expose: the rotation's first instance of each profile is
// replayed through workload.Prepare and Session.Run with taps attached,
// at the farm's seeds, budget and chunk schedule, and reduced by RunAll.
// Each replayed histogram must equal the one the farm persisted for that
// instance.
func (b *bench) fleetLayers(o *batch, root string) {
	ps := fleetInstances(len(workload.All()))
	replay := &batch{}
	comp, ok := b.sessions(replay, ps, b.sc.fleetEvery, true)
	b.tr.batch.stepping = replay.stepping
	o.ops += replay.ops
	o.failed += replay.failed
	o.problems = append(o.problems, replay.problems...)
	if !ok {
		return
	}
	for i, run := range comp.Runs {
		h, err := loadHistogram(filepath.Join(root, fmt.Sprintf("inst-%05d", i), "result.upc"))
		o.check(err == nil && *h == *run.Hist, "instance %d (%s): traced replay histogram differs from the farm's (%v)", i, ps[i].Name, err)
	}
	b.tr.span("experiments.RunAll", func() {
		experiments.RunAll(experiments.NewContextFromComposite(comp, cpu.Config{}))
	})
}

func loadHistogram(path string) (*core.Histogram, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadHistogram(f)
}
