// Package cpu implements a cycle-level model of the VAX-11/780 processor:
// the microcoded EBOX, the I-Fetch unit with its 8-byte instruction buffer,
// the I-Decode dispatch, and their connection to the memory subsystem
// (translation buffer, cache, write buffer and SBI).
//
// Every cycle the machine executes is attributed to exactly one microcode
// control-store location (see internal/ucode) and reported to an attached
// µPC histogram probe, reproducing the measurement substrate of Emer &
// Clark's ISCA 1984 study. Stalled cycles (read stall, write stall) are
// reported separately per location, and IB stalls are counted as executions
// of dedicated "insufficient bytes" dispatch locations, exactly as on the
// authors' monitor board (§2.2, §4.3 of the paper).
package cpu

import (
	"context"
	"errors"
	"fmt"

	"vax780/internal/cache"
	"vax780/internal/fault"
	"vax780/internal/mem"
	"vax780/internal/mmu"
	"vax780/internal/tb"
	"vax780/internal/vax"
)

// CycleNanoseconds is the EBOX microinstruction time: the paper's
// definition of a cycle (§2.1).
const CycleNanoseconds = 200

// Probe receives per-cycle µPC events. It is the attachment point for the
// µPC histogram monitor (internal/core). A nil probe means no monitor.
//
// The probe is passive: implementations must not mutate machine state.
type Probe interface {
	// Count records n executed (non-stalled) cycles at a control-store
	// location: a microcode loop revisiting one location reports its
	// iterations in one call. An IB-stall location's execution count is
	// defined to be the stall cycle count.
	Count(upc uint16, n uint64)
	// Stall records n read- or write-stalled cycles at the location of
	// the stalled microinstruction.
	Stall(upc uint16, n uint64)
}

// Config assembles a machine. Zero fields take 11/780 defaults.
type Config struct {
	MemBytes uint32        // physical memory size (default 8 MB, as measured)
	SBI      mem.SBIConfig // bus timing
	Cache    cache.Config  // cache geometry
	// DecodeOverlap removes the non-overlapped decode cycle on
	// non-PC-changing instructions (the 11/750 optimization discussed in
	// §5) — an ablation knob, off for the 11/780.
	DecodeOverlap bool
	// CharWriteSpacing enables the character-string microcode's
	// write-stall-avoidance spacing (§4.3); on for the real machine.
	// Disabling it is an ablation.
	NoCharWriteSpacing bool
	// PatchEvery inserts one Abort-row cycle every N instructions,
	// modelling the production machines' microcode patches ("one [abort
	// cycle] for each microcode patch", §5). Default 10; negative
	// disables.
	PatchEvery int
	// WriteBufferDepth sizes the write buffer in longwords (default 1,
	// the 11/780's; deeper buffers are an ablation).
	WriteBufferDepth int
	// NoTBFlushOnSwitch stops LDPCTX from flushing the process half of
	// the TB — the flush-policy ablation of §3.4 (which would require
	// address-space tags the 780 does not have).
	NoTBFlushOnSwitch bool
	// NoFPA removes the Floating Point Accelerator ("all of the VAXes had
	// Floating Point Accelerators", §2.2): floating execute phases take
	// FPASlowdown times as many microcycles.
	NoFPA bool
	// FPASlowdown is the microcode-only float cost multiplier when NoFPA
	// is set (default 3).
	FPASlowdown int
}

// IRQ is a pending interrupt request.
type IRQ struct {
	At     uint64 // cycle at which the request asserts
	IPL    uint8  // request priority level
	Vector uint16 // SCB vector offset (bytes)
}

// Machine is a complete VAX-11/780.
type Machine struct {
	cfg Config //vaxlint:allow statecomplete -- travels as checkpoint Meta.Machine; the resume path rebuilds with cpu.New

	Mem   *mem.Memory
	SBI   *mem.SBI
	WB    *mem.WriteBuffer
	Cache *cache.Cache
	TLB   *tb.TB
	MMU   mmu.Registers

	fm       xlateMemo //vaxlint:allow statecomplete -- derived: a memo of mmu.Walk results, emptied whenever MMU or the memory write generation (bumped by ImportState) changes
	refXlate bool      //vaxlint:allow statecomplete -- test hook: translate every functional byte with mmu.Translate (the reference path); never set outside tests

	// Architectural state.
	R   [16]uint32 // R15 (PC) is shadowed by the IB pointer; see PCVal
	PSL uint32
	ipr [iprCount]uint32 // internal processor registers

	// Microarchitectural state.
	ib         ibox
	ops        [6]operand  //vaxlint:allow statecomplete -- per-instruction decode scratch, rewritten before any use
	nops       int         //vaxlint:allow statecomplete -- per-instruction decode scratch
	instr      *vax.OpInfo //vaxlint:allow statecomplete -- per-instruction decode scratch
	instPC     uint32      //vaxlint:allow statecomplete -- per-instruction decode scratch
	cycle      uint64
	instret    uint64
	upc        uint16 // control-store location of the last cycle
	halted     bool
	haltReason HaltReason
	runErr     error

	probe Probe //vaxlint:allow statecomplete -- attachment; the resume path re-attaches the monitor
	gate  bool  // monitor count enable (vmos drops it for the null process)

	irqs    []IRQ // time-ordered external interrupt requests
	nextIRQ int

	lastPCChange bool // previous instruction changed the PC (DecodeOverlap ablation)
	inExc        bool //vaxlint:allow statecomplete -- false at every instruction boundary (snapshots are taken there); ImportState re-clears it
	instAborted  bool //vaxlint:allow statecomplete -- false at every instruction boundary; ImportState re-clears it
	patchCtr     int  // instructions until the next patched microword

	// Progress watchdog (see SetWatchdog): a machine that burns wdLimit
	// cycles without retiring an instruction is stopped with a structured
	// error instead of spinning forever.
	wdLimit      uint64 //vaxlint:allow statecomplete -- supervisor configuration, re-armed by the supervisor on resume
	wdLastRetire uint64 // cycle at which the last instruction retired

	// Machine-check state (see mcheck.go).
	plane     *fault.Plane //vaxlint:allow statecomplete -- attachment; rebuilt from Meta.Fault, stream positions travel as FaultState
	csSample  func() bool  //vaxlint:allow statecomplete -- attachment derived from the plane (control-store parity sampler, nil = never)
	pendMC    pendingMC
	mcPending bool
	mcActive  bool // a machine check is being handled (cleared by REI)

	// Hardware event counters (not monitor-visible; used for cross-checks).
	// They travel as State.HW: ExportState captures them through the HW()
	// accessor, an indirection the statecomplete analyzer cannot follow,
	// so each carries the exemption naming that path.
	unaligned     uint64              //vaxlint:allow statecomplete -- exported via HW() into State.HW.Unaligned
	sirrRequests  uint64              //vaxlint:allow statecomplete -- exported via HW() into State.HW.SIRRRequests
	irqDelivered  uint64              //vaxlint:allow statecomplete -- exported via HW() into State.HW.Interrupts
	exceptions    uint64              //vaxlint:allow statecomplete -- exported via HW() into State.HW.Exceptions
	ctxSwitches   uint64              //vaxlint:allow statecomplete -- exported via HW() into State.HW.CtxSwitches
	machineChecks uint64              //vaxlint:allow statecomplete -- exported via HW() into State.HW.MachineChecks
	mcLost        uint64              //vaxlint:allow statecomplete -- exported via HW() into State.HW.MachineChecksLost
	mcByCause     [NumMCCauses]uint64 //vaxlint:allow statecomplete -- exported via HW() into State.HW.MachineChecksByCause

	// OnInstruction, if set, runs between instructions (used by the OS
	// layer for scheduling decisions and by the RTE for terminal events).
	OnInstruction InstructionHook //vaxlint:allow statecomplete -- attachment; vmos re-installs its scheduler hook on boot
}

// InstructionHook is the type of Machine.OnInstruction. It is a named
// type so the hot-path analyzers (DESIGN.md §13) follow the call in
// RunCtx into every function installed as a hook: a hook runs once per
// instruction and is held to the same contract as the stepping loop.
type InstructionHook func(m *Machine)

// New builds a machine.
func New(cfg Config) *Machine {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 8 << 20
	}
	if cfg.SBI.ReadLatency == 0 {
		cfg.SBI = mem.DefaultSBIConfig()
	}
	if cfg.Cache.SizeBytes == 0 {
		cfg.Cache = cache.DefaultConfig()
	}
	if cfg.PatchEvery == 0 {
		cfg.PatchEvery = 10
	}
	if cfg.FPASlowdown == 0 {
		cfg.FPASlowdown = 3
	}
	m := &Machine{}
	if cfg.WriteBufferDepth == 0 {
		cfg.WriteBufferDepth = 1
	}
	m.cfg = cfg
	m.Mem = mem.New(cfg.MemBytes)
	// A bad configuration does not abort construction: the machine is
	// built on defaults with a sticky error, so callers that ignore Err()
	// still hold a structurally sound (if halted) machine.
	sbi, err := mem.NewSBI(cfg.SBI)
	if err != nil {
		sbi, _ = mem.NewSBI(mem.DefaultSBIConfig())
		m.fail("bad configuration: %v", err)
	}
	m.SBI = sbi
	m.WB = mem.NewWriteBufferDepth(m.SBI, cfg.WriteBufferDepth)
	c, err := cache.New(cfg.Cache)
	if err != nil {
		c, _ = cache.New(cache.DefaultConfig())
		m.fail("bad configuration: %v", err)
	}
	m.Cache = c
	m.TLB = tb.New()
	m.ib.m = m
	m.gate = true
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// AttachProbe connects a µPC histogram probe. Passing nil detaches.
func (m *Machine) AttachProbe(p Probe) { m.probe = p }

// SetMonitorGate enables or disables monitor counting (the paper excluded
// the VMS null process from measurement, §2.2).
func (m *Machine) SetMonitorGate(on bool) { m.gate = on }

// MonitorGate reports whether monitor counting is enabled.
func (m *Machine) MonitorGate() bool { return m.gate }

// Cycle returns the current cycle number.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Instructions returns the number of completed VAX instructions.
func (m *Machine) Instructions() uint64 { return m.instret }

// Halted reports whether the machine executed HALT in kernel mode.
func (m *Machine) Halted() bool { return m.halted }

// PCVal returns the architectural PC: the address of the next I-stream
// byte to be decoded.
func (m *Machine) PCVal() uint32 { return m.ib.cur() }

// SetPC redirects instruction fetch to va.
func (m *Machine) SetPC(va uint32) { m.ib.redirect(va) }

// QueueIRQ schedules an external interrupt request. Requests may arrive
// in any time order; each is inserted at its place in the pending queue
// (but never before a request that was already delivered).
func (m *Machine) QueueIRQ(q IRQ) {
	if m.nextIRQ == len(m.irqs) {
		// Every queued request has been delivered: start over at the
		// front, so the array stops growing at the peak number pending.
		m.irqs, m.nextIRQ = m.irqs[:0], 0
	}
	i := len(m.irqs)
	for i > m.nextIRQ && m.irqs[i-1].At > q.At {
		i--
	}
	//vaxlint:allow hotpath -- once per device request (clock, terminal, disk), not per cycle; the queue restarts when drained, so growth stops at the peak number of pending requests
	m.irqs = append(m.irqs, IRQ{})
	copy(m.irqs[i+1:], m.irqs[i:])
	m.irqs[i] = q
}

// tick executes one non-stalled cycle at control-store location w.
func (m *Machine) tick(w uint16) { m.count(w, 1, false) }

// ticks executes n cycles at w (a microcode loop revisiting one location)
// as one count. A watchdog that expires inside the run splits it at the
// expiry cycle, so the error records the cycle and µPC that n single
// ticks would.
func (m *Machine) ticks(w uint16, n int) {
	if n <= 0 {
		return
	}
	k := uint64(n)
	if m.wdLimit != 0 {
		upTo := uint64(1) // ticks up to and including the one that expires
		if used := m.cycle - m.wdLastRetire; used <= m.wdLimit {
			upTo = m.wdLimit - used + 1
		}
		if upTo < k {
			m.count(w, upTo, false)
			k -= upTo
		}
	}
	m.count(w, k, false)
}

// stall accounts n read-/write-stalled cycles at w.
func (m *Machine) stall(w uint16, n uint64) {
	if n == 0 {
		return
	}
	m.count(w, n, true)
}

// ibStallTick burns one cycle waiting for IB bytes, counted as an
// execution of the dedicated stall location w (§4.3).
func (m *Machine) ibStallTick(w uint16) { m.count(w, 1, false) }

// count is the epilogue every counting primitive shares: n cycles at w,
// reported to a gated probe as stalled or executed, then the clock and
// the progress watchdog advance. The primitives keep their own names —
// uwflow tells the count channels apart by the primitive called.
func (m *Machine) count(w uint16, n uint64, stalled bool) {
	m.upc = w
	if m.probe != nil && m.gate {
		if stalled {
			m.probe.Stall(w, n)
		} else {
			m.probe.Count(w, n)
		}
	}
	m.cycle += n
	if m.wdLimit != 0 && m.cycle-m.wdLastRetire > m.wdLimit {
		m.watchdogExpire()
	}
}

// SetWatchdog arms the progress watchdog: if the machine executes cycles
// cycles without retiring a single instruction — a wedged µPC loop, an
// interrupt storm, a microcode spin — it stops with a *MachineError
// recording the stuck µPC and a full diagnostic state dump. Zero disarms.
// The budget must comfortably exceed the longest legitimate instruction
// (a maximum-length character-string instruction runs for tens of
// thousands of cycles).
func (m *Machine) SetWatchdog(cycles uint64) {
	m.wdLimit = cycles
	m.wdLastRetire = m.cycle
}

// watchdogExpire stops the machine with a livelock diagnosis. The failure
// µPC is the location the machine was stuck at; the error carries a state
// dump taken at expiry.
//
//vaxlint:allow hotpath -- cold: fires at most once per run, at livelock diagnosis; the machine stops
func (m *Machine) watchdogExpire() {
	if m.runErr != nil {
		return
	}
	dump := m.StateDump()
	m.fail("watchdog: no instruction retired in %d cycles (stuck at µpc %#04x)", m.wdLimit, m.upc)
	var me *MachineError
	if errors.As(m.runErr, &me) {
		me.Dump = dump
	}
}

// HaltReason classifies why the machine stopped.
type HaltReason int

const (
	// HaltNone: the machine has not halted (e.g. the cycle budget ran out).
	HaltNone HaltReason = iota
	// HaltInstruction: a kernel-mode HALT instruction — the orderly stop.
	HaltInstruction
	// HaltError: an unrecoverable model error; Err carries a *MachineError.
	HaltError
)

func (r HaltReason) String() string {
	switch r {
	case HaltNone:
		return "running"
	case HaltInstruction:
		return "HALT instruction"
	case HaltError:
		return "unrecoverable error"
	}
	return "unknown halt reason"
}

// MachineError is the sticky error of a machine that stopped on an
// unrecoverable condition. UPC and Cycle locate the failure: the
// control-store location of the last cycle executed and the cycle count
// at the stop.
type MachineError struct {
	UPC   uint16
	Cycle uint64
	Msg   string
	// Dump, when non-empty, is a diagnostic state snapshot taken at the
	// failure (the watchdog fills it in; see StateDump). It is not part
	// of Error() — callers that want the post-mortem print it explicitly.
	Dump string
}

func (e *MachineError) Error() string {
	return fmt.Sprintf("cpu: %s (µpc %#04x, cycle %d)", e.Msg, e.UPC, e.Cycle)
}

// RunResult describes why Run returned.
type RunResult struct {
	Cycles       uint64
	Instructions uint64
	Halted       bool
	Reason       HaltReason
	Err          error
}

// Run executes instructions until a kernel-mode HALT, an unrecoverable
// error, or the cycle budget is exhausted.
func (m *Machine) Run(maxCycles uint64) RunResult {
	return m.RunCtx(context.Background(), maxCycles)
}

// RunCtx is Run with cooperative cancellation: the context is polled at
// every instruction boundary, so a cancelled or expired context stops the
// machine cleanly between instructions — the state remains checkpointable.
// On cancellation the result's Err is the context's error (the machine
// itself carries no sticky error and can keep running).
func (m *Machine) RunCtx(ctx context.Context, maxCycles uint64) RunResult {
	start := m.cycle
	startInst := m.instret
	var ctxErr error
	// The poll is a non-blocking receive on Done; Err, which locks a
	// cancellable context, runs only once Done has fired.
	done := ctx.Done()
run:
	for !m.halted && m.runErr == nil && m.cycle-start < maxCycles {
		select {
		case <-done:
			ctxErr = ctx.Err()
			break run
		default:
		}
		m.StepInstruction()
		if m.OnInstruction != nil {
			m.OnInstruction(m)
		}
	}
	err := m.runErr
	if err == nil {
		err = ctxErr
	}
	return RunResult{
		Cycles:       m.cycle - start,
		Instructions: m.instret - startInst,
		Halted:       m.halted,
		Reason:       m.haltReason,
		Err:          err,
	}
}

// Err returns the sticky machine error, if any.
func (m *Machine) Err() error { return m.runErr }

// Reason returns why the machine halted (HaltNone while running).
func (m *Machine) Reason() HaltReason { return m.haltReason }

// fail stops the machine with a structured *MachineError recording the
// failing µPC and cycle. Once failed, further Steps are inert and the
// first error sticks.
//
//vaxlint:allow hotpath -- cold: terminal failure path; the machine stops after the first error and further Steps are inert
func (m *Machine) fail(format string, args ...any) {
	if m.runErr == nil {
		m.runErr = &MachineError{
			UPC:   m.upc,
			Cycle: m.cycle,
			Msg:   fmt.Sprintf(format, args...),
		}
		m.haltReason = HaltError
	}
	m.halted = true
}

// CurrentMode returns the PSL current-mode field (0 kernel .. 3 user).
func (m *Machine) CurrentMode() uint32 { return m.PSL >> 24 & 3 }

// HWCounters are hardware event counts kept outside the monitor, used to
// cross-check the histogram-derived frequencies.
type HWCounters struct {
	Unaligned    uint64 // unaligned D-stream references (§3.3.1: ~0.016/instr)
	SIRRRequests uint64 // software interrupt requests (Table 7)
	Interrupts   uint64 // hardware+software interrupts delivered (Table 7)
	Exceptions   uint64
	CtxSwitches  uint64 // LDPCTX executions (Table 7)
	// MachineChecks counts delivered machine checks; MachineChecksLost
	// counts syndromes absorbed while a check was already outstanding
	// (the single-error latch, see mcheck.go).
	MachineChecks        uint64
	MachineChecksLost    uint64
	MachineChecksByCause [NumMCCauses]uint64
}

// HW returns the hardware event counters.
func (m *Machine) HW() HWCounters {
	return HWCounters{
		Unaligned:            m.unaligned,
		SIRRRequests:         m.sirrRequests,
		Interrupts:           m.irqDelivered,
		Exceptions:           m.exceptions,
		CtxSwitches:          m.ctxSwitches,
		MachineChecks:        m.machineChecks,
		MachineChecksLost:    m.mcLost,
		MachineChecksByCause: m.mcByCause,
	}
}

// setMode switches the current mode, banking the stack pointer.
func (m *Machine) setMode(mode uint32) {
	cur := m.CurrentMode()
	if cur == mode {
		return
	}
	// Save outgoing SP, load incoming.
	m.ipr[IPRSlotKSP+int(cur)] = m.R[vax.SP]
	m.R[vax.SP] = m.ipr[IPRSlotKSP+int(mode)]
	m.PSL = m.PSL&^(3<<24) | mode<<24
}
