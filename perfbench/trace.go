package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vax780/internal/cache"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/mmu"
	"vax780/internal/tb"
)

// span is one timed call into a layer's public entry point, recorded by
// the benchmark around the call (nothing inside the program is
// instrumented). Times are nanoseconds since the run started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans for one traced run and owns the per-batch layer
// counts. A nil *tracer is the untraced run: every method is a no-op, so
// the workload code calls it unconditionally.
type tracer struct {
	runID  string
	origin time.Time
	spans  []span
	parent int // span new spans hang under (the current batch)

	// capture is set for the first traced batch only: its taps record
	// address and µPC streams, which are replayed after stepping.
	capture bool
	batch   layerBatch
	replay  replayTotals
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, origin: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under the current parent and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.parent, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = t.now()
	t.batch.spanTime[s.Name] += time.Duration(s.End - s.Start)
}

// call runs fn inside a span named name.
func (t *tracer) call(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// span runs fn inside a span named name.
func (t *tracer) span(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// startBatch opens the root span of one traced batch and resets the
// batch's layer counts.
func (t *tracer) startBatch(name string) int {
	if t == nil {
		return 0
	}
	t.parent = 0
	id := t.begin(name)
	t.parent = id
	t.batch = layerBatch{spanTime: map[string]time.Duration{}}
	return id
}

func (t *tracer) endBatch(id int) {
	if t == nil {
		return
	}
	t.parent = 0
	t.end(id)
}

// write saves the run's spans as one JSON document under dir.
func (t *tracer) write(dir, file string, h hostInfo, seed int64) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	doc := struct {
		RunID string   `json:"run_id"`
		Host  hostInfo `json:"host"`
		Seed  int64    `json:"seed"`
		Spans []span   `json:"spans"`
	}{t.runID, h, seed, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, file), data, 0o666)
}

// layerCounts are the exact, deterministic counts a traced batch takes at
// the layer boundaries. Two traced batches of one seed must produce equal
// values; the benchmark checks that they do.
type layerCounts struct {
	Instructions, Cycles uint64
	MemReads             uint64 // Mem.SetInjector sampler calls
	ProbeCalls           uint64 // Probe.Count + Probe.Stall
	HookCalls            uint64 // OnInstruction calls
	TBLookups, TBFlushes uint64
	TBHits, TBMisses     [2]uint64 // by tb.Stream
	CacheReads           uint64
	CacheWrites          uint64
	CacheHits, CacheMiss [2]uint64 // reads, by cache.Stream
	SBIBusy              uint64
	WBStallCycles        uint64
	IBBytes, IBRedirects uint64
	CtxSwitches          uint64
	Interrupts           uint64
}

func (c *layerCounts) add(o layerCounts) {
	c.Instructions += o.Instructions
	c.Cycles += o.Cycles
	c.MemReads += o.MemReads
	c.ProbeCalls += o.ProbeCalls
	c.HookCalls += o.HookCalls
	c.TBLookups += o.TBLookups
	c.TBFlushes += o.TBFlushes
	c.CacheReads += o.CacheReads
	c.CacheWrites += o.CacheWrites
	for i := 0; i < 2; i++ {
		c.TBHits[i] += o.TBHits[i]
		c.TBMisses[i] += o.TBMisses[i]
		c.CacheHits[i] += o.CacheHits[i]
		c.CacheMiss[i] += o.CacheMiss[i]
	}
	c.SBIBusy += o.SBIBusy
	c.WBStallCycles += o.WBStallCycles
	c.IBBytes += o.IBBytes
	c.IBRedirects += o.IBRedirects
	c.CtxSwitches += o.CtxSwitches
	c.Interrupts += o.Interrupts
}

// layerBatch is what one traced batch measured.
type layerBatch struct {
	counts   layerCounts
	spanTime map[string]time.Duration // total duration per span name
	stepping time.Duration            // time inside Run calls
	hookNs   float64                  // summed sampled hook time
	hookN    uint64                   // hook samples
	mallocs  uint64                   // heap allocations while stepping
	bytes    uint64                   // heap bytes allocated while stepping
}

// tap is attached to one machine for a traced batch. It is the probe, the
// memory read sampler, the cache tracer and the TB tracer at once; each
// callback counts, optionally records the reference, and otherwise leaves
// the machine alone. The histogram comes from the tap's own monitor,
// which replaces the session's before the first cycle.
type tap struct {
	m   *cpu.Machine
	mon *core.Monitor
	c   layerCounts

	hookNs float64
	hookN  uint64

	capturing bool
	upcs      []uint16
	pas       []addrRef
	vas       []addrRef
	regs      []mmu.Registers
}

// addrRef is one captured cache or TB reference.
type addrRef struct {
	addr   uint32
	stream uint8
	regs   uint32 // index into tap.regs (TB references only)
}

// Capture buffer sizes: one chunk of references is plenty for the
// per-call replays, and preallocating keeps the taps from allocating
// while the machine steps.
const (
	captureUPCs = 1 << 17
	captureRefs = 1 << 16
	captureRegs = 1 << 10 // register sets: one per context switch seen
)

// hookSampleMask times one OnInstruction call in 64.
const hookSampleMask = 63

func newTap(m *cpu.Machine, capture bool) *tap {
	t := &tap{m: m, mon: core.NewMonitor()}
	t.mon.Start()
	if capture {
		t.upcs = make([]uint16, 0, captureUPCs)
		t.pas = make([]addrRef, 0, captureRefs)
		t.vas = make([]addrRef, 0, captureRefs)
		t.regs = make([]mmu.Registers, 0, captureRegs)
	}
	m.AttachProbe(t)
	m.Mem.SetInjector(t.memRead)
	m.Cache.SetTracer(t)
	m.TLB.SetTracer(t)
	if inner := m.OnInstruction; inner != nil {
		m.OnInstruction = func(m *cpu.Machine) {
			t.c.HookCalls++
			if t.c.HookCalls&hookSampleMask != 0 {
				inner(m)
				return
			}
			start := time.Now()
			inner(m)
			t.hookNs += float64(time.Since(start))
			t.hookN++
		}
	}
	return t
}

func (t *tap) memRead() bool {
	t.c.MemReads++
	return false
}

// Count implements cpu.Probe.
func (t *tap) Count(upc uint16, n uint64) {
	t.c.ProbeCalls++
	if t.capturing && len(t.upcs) < cap(t.upcs) {
		t.upcs = append(t.upcs, upc)
	}
	t.mon.Count(upc, n)
}

// Stall implements cpu.Probe.
func (t *tap) Stall(upc uint16, n uint64) {
	t.c.ProbeCalls++
	t.mon.Stall(upc, n)
}

// CacheRead implements cache.Tracer.
func (t *tap) CacheRead(pa uint32, st cache.Stream) {
	t.c.CacheReads++
	if t.capturing && len(t.pas) < cap(t.pas) {
		t.pas = append(t.pas, addrRef{addr: pa, stream: uint8(st)})
	}
}

// CacheWrite implements cache.Tracer.
func (t *tap) CacheWrite(uint32) { t.c.CacheWrites++ }

// CacheFlush implements cache.Tracer.
func (t *tap) CacheFlush() {}

// TBLookup implements tb.Tracer. The translation registers in force are
// recorded with the address so the replay walks the same page tables.
func (t *tap) TBLookup(va uint32, st tb.Stream) {
	t.c.TBLookups++
	if !t.capturing || len(t.vas) >= cap(t.vas) {
		return
	}
	if n := len(t.regs); n == 0 || t.regs[n-1] != t.m.MMU {
		if n == cap(t.regs) {
			return
		}
		t.regs = append(t.regs, t.m.MMU)
	}
	t.vas = append(t.vas, addrRef{addr: va, stream: uint8(st), regs: uint32(len(t.regs) - 1)})
}

// TBInsert implements tb.Tracer.
func (t *tap) TBInsert(uint32) {}

// TBFlushProcess implements tb.Tracer.
func (t *tap) TBFlushProcess() { t.c.TBFlushes++ }

// TBFlushAll implements tb.Tracer.
func (t *tap) TBFlushAll() { t.c.TBFlushes++ }

// TBInvalidate implements tb.Tracer.
func (t *tap) TBInvalidate(uint32) {}

// finish folds the machine's own statistics into the tap's counts. The
// machine is fresh for every batch, so its cumulative statistics are the
// batch's.
func (t *tap) finish() layerCounts {
	m := t.m
	c := t.c
	c.Instructions = m.Instructions()
	c.Cycles = m.Cycle()
	ts := m.TLB.Stats()
	cs := m.Cache.Stats()
	for i := 0; i < 2; i++ {
		c.TBHits[i] = ts.Hits[i]
		c.TBMisses[i] = ts.Misses[i]
		c.CacheHits[i] = cs.ReadHits[i]
		c.CacheMiss[i] = cs.ReadMisses[i]
	}
	c.SBIBusy = m.SBI.Stats().BusyCycles
	c.WBStallCycles = m.WB.Stats().StallCycles
	ib := m.IBStats()
	c.IBBytes = ib.BytesDelivered
	c.IBRedirects = ib.Redirects
	hw := m.HW()
	c.CtxSwitches = hw.CtxSwitches
	c.Interrupts = hw.Interrupts
	return c
}

// memSample reads the allocation counters around a stepping loop.
func memSample() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}
