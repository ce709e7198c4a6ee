package workload

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"vax780/internal/cache"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/fault"
	"vax780/internal/tb"
	"vax780/internal/vmos"
)

// ErrUnexpectedHalt reports a workload that executed a kernel HALT before
// its cycle budget ran out — a fatal kernel stop, not a measurement. Typed so
// callers across the workload boundary can route on it with errors.Is.
var ErrUnexpectedHalt = errors.New("workload halted unexpectedly")

// Result is one measurement session: the raw histogram plus the hardware
// counters the paper's companion studies supply (§4.1, §4.2).
type Result struct {
	Profile      Profile
	Hist         *core.Histogram
	Instructions uint64 // machine-level (includes the null process)
	Cycles       uint64
	Cache        cache.Stats
	IB           cpu.IBStats
	TB           tb.Stats
	HW           cpu.HWCounters
	Faults       fault.Stats // injection activity (zero without a plane)
}

// session is one prepared measurement run: a booted system with monitor
// and (optional) fault plane attached. Every run path builds one; the
// resume path builds one and then overwrites its state from a snapshot.
type session struct {
	p      Profile
	cycles uint64 // total cycle budget
	sys    *vmos.System
	mon    *core.Monitor
	plane  *fault.Plane
}

// build boots a measurement session for one workload. The construction is
// deterministic in (p, cycles, mcfg): the resume path depends on two
// builds from the same inputs being identical before state import.
func build(p Profile, cycles uint64, mcfg cpu.Config, plane *fault.Plane) (*session, error) {
	sys := vmos.NewSystem(vmos.Config{
		Machine:     mcfg,
		IncludeNull: true,
	})
	mon := core.NewMonitor()
	mon.Start()
	sys.Machine().AttachProbe(mon)
	sys.Machine().AttachFaultPlane(plane)

	for i := 0; i < p.Procs; i++ {
		im, err := generateShared(p.program(i))
		if err != nil {
			return nil, fmt.Errorf("workload %s: generate: %w", p.Name, err)
		}
		if _, err := sys.AddProcess(fmt.Sprintf("%s-%d", p.Name, i), im); err != nil {
			return nil, err
		}
	}
	if err := sys.Boot(); err != nil {
		return nil, fmt.Errorf("workload %s: boot: %w", p.Name, err)
	}
	sys.SetScriptText(p.Script)
	sys.QueueTerminalEvents(p.TerminalSchedule(cycles))
	return &session{p: p, cycles: cycles, sys: sys, mon: mon, plane: plane}, nil
}

// program returns the generation config of the profile's i-th process.
func (p Profile) program(i int) GenConfig {
	return GenConfig{
		Mix:       p.Mix,
		Blocks:    p.Blocks,
		LoopIter:  p.LoopIter,
		StringLen: p.StringLen,
		Seed:      p.Seed + int64(i)*1000,
	}
}

// result assembles the measurement from the session's current state.
func (s *session) result() *Result {
	m := s.sys.Machine()
	return &Result{
		Profile:      s.p,
		Hist:         s.mon.Snapshot(),
		Instructions: m.Instructions(),
		Cycles:       m.Cycle(),
		Cache:        m.Cache.Stats(),
		IB:           m.IBStats(),
		TB:           m.TLB.Stats(),
		HW:           m.HW(),
		Faults:       s.plane.Stats(),
	}
}

// Run executes one workload for the given cycle budget under a collecting
// monitor and returns the measurement: a supervised run with the zero
// Supervisor, which is one uninterrupted slice over the whole budget.
func Run(p Profile, cycles uint64, mcfg cpu.Config) (*Result, error) {
	return RunSupervised(context.Background(), Spec{Profile: p, Cycles: cycles, Machine: mcfg}, Supervisor{})
}

// Composite is the sum of the five workloads' histograms — the paper
// reports "the composite of all five, that is, the sum of the five UPC
// histograms" (§2.2).
type Composite struct {
	Runs []*Result
	Hist *core.Histogram
}

// RunComposite measures all five workloads for cyclesEach cycles each
// under the supervisor and sums their histograms. A checkpoint directory
// in sup gets one subdirectory per workload. With resume set, each
// workload goes through RunOrResume — completed workloads reconstruct
// their Result from their final snapshot, the interrupted one continues —
// so a crashed or interrupted composite picks up where it stopped.
func RunComposite(ctx context.Context, cyclesEach uint64, mcfg cpu.Config, sup Supervisor, resume bool) (*Composite, error) {
	run := RunSupervised
	if resume {
		run = RunOrResume
	}
	comp := &Composite{Hist: &core.Histogram{}}
	for _, p := range All() {
		sub := sup
		if sup.CheckpointDir != "" {
			sub.CheckpointDir = filepath.Join(sup.CheckpointDir, p.Name)
		}
		r, err := run(ctx, Spec{Profile: p, Cycles: cyclesEach, Machine: mcfg}, sub)
		if err != nil {
			return nil, err
		}
		comp.Runs = append(comp.Runs, r)
		comp.Hist.Add(r.Hist)
	}
	return comp, nil
}

// HWTotals sums the hardware counters across the composite's runs.
func (c *Composite) HWTotals() (cache.Stats, cpu.IBStats, tb.Stats, cpu.HWCounters, uint64) {
	var cs cache.Stats
	var ib cpu.IBStats
	var ts tb.Stats
	var hw cpu.HWCounters
	var instr uint64
	for _, r := range c.Runs {
		for i := 0; i < 2; i++ {
			cs.ReadHits[i] += r.Cache.ReadHits[i]
			cs.ReadMisses[i] += r.Cache.ReadMisses[i]
			ts.Hits[i] += r.TB.Hits[i]
			ts.Misses[i] += r.TB.Misses[i]
		}
		cs.WriteHits += r.Cache.WriteHits
		cs.WriteMisses += r.Cache.WriteMisses
		cs.ParityErrors += r.Cache.ParityErrors
		ts.ProcessFlushes += r.TB.ProcessFlushes
		ts.ParityErrors += r.TB.ParityErrors
		ib.CacheRefs += r.IB.CacheRefs
		ib.BytesDelivered += r.IB.BytesDelivered
		ib.BytesConsumed += r.IB.BytesConsumed
		ib.Redirects += r.IB.Redirects
		ib.TBMisses += r.IB.TBMisses
		hw.Unaligned += r.HW.Unaligned
		hw.SIRRRequests += r.HW.SIRRRequests
		hw.Interrupts += r.HW.Interrupts
		hw.Exceptions += r.HW.Exceptions
		hw.CtxSwitches += r.HW.CtxSwitches
		hw.MachineChecks += r.HW.MachineChecks
		hw.MachineChecksLost += r.HW.MachineChecksLost
		for i := range hw.MachineChecksByCause {
			hw.MachineChecksByCause[i] += r.HW.MachineChecksByCause[i]
		}
		instr += r.Instructions
	}
	return cs, ib, ts, hw, instr
}
