package cpu

import (
	"fmt"
	"strings"

	"vax780/internal/cache"
	"vax780/internal/mem"
	"vax780/internal/mmu"
	"vax780/internal/tb"
	"vax780/internal/vax"
)

// Checkpoint support: the complete run state of a machine, exportable at
// an instruction boundary and importable into a machine built with the
// same Config. The snapshot deliberately excludes:
//
//   - configuration (the resume path rebuilds the machine from the
//     checkpoint's recorded Config before importing);
//   - attachments — probe, fault plane, OnInstruction — which the resume
//     path re-attaches;
//   - per-instruction transients (decoded operands, the current OpInfo),
//     which are dead at the boundary where checkpoints are taken;
//   - the sticky error state: a stopped machine cannot be checkpointed.
//
// Every field of Machine and ibox is referenced by both ExportState and
// ImportState or exempted at its declaration with the reason it need not
// travel; the statecomplete analyzer (DESIGN.md §11) holds each
// stateful type to that in tier-1, so a new field cannot be silently
// dropped from the snapshot.

// IBState is the serialized state of the I-Fetch unit.
type IBState struct {
	Ptr           uint32
	Valid         int
	FillPending   bool
	FillDone      uint64
	FillBytes     int
	TBMissPending bool
	TBMissVA      uint32
	Advanced      uint64
	Stats         IBStats
}

// ExportState captures the I-Fetch unit's fill state and counters.
func (ib *ibox) ExportState() IBState {
	return IBState{
		Ptr:           ib.ptr,
		Valid:         ib.valid,
		FillPending:   ib.fillPending,
		FillDone:      ib.fillDone,
		FillBytes:     ib.fillBytes,
		TBMissPending: ib.tbMissPending,
		TBMissVA:      ib.tbMissVA,
		Advanced:      ib.advanced,
		Stats:         ib.stats,
	}
}

// ImportState restores a captured I-Fetch state. The frame window is
// derived, not restored: Machine.ImportState drops it with the MMU
// registers it writes, and the next peek retakes it.
func (ib *ibox) ImportState(st IBState) {
	ib.ptr = st.Ptr
	ib.valid = st.Valid
	ib.fillPending = st.FillPending
	ib.fillDone = st.FillDone
	ib.fillBytes = st.FillBytes
	ib.tbMissPending = st.TBMissPending
	ib.tbMissVA = st.TBMissVA
	ib.advanced = st.Advanced
	ib.stats = st.Stats
}

// State is the complete serialized run state of a Machine.
type State struct {
	// Architectural state.
	R   [16]uint32
	PSL uint32
	IPR [iprCount]uint32
	MMU mmu.Registers

	// Microarchitectural state.
	IB           IBState
	Cycle        uint64
	Instret      uint64
	UPC          uint16
	Gate         bool
	IRQs         []IRQ
	NextIRQ      int
	LastPCChange bool
	PatchCtr     int
	WDLastRetire uint64

	// Machine-check latch.
	MCPending bool
	MCActive  bool
	PendMC    PendingMC

	// Hardware event counters.
	HW HWCounters

	// Memory subsystem.
	Mem   mem.MemoryState
	SBI   mem.SBIState
	WB    mem.WriteBufferState
	Cache cache.State
	TB    tb.State
}

// ExportState captures the machine's complete run state. It must be
// called at an instruction boundary (between Run/StepInstruction calls)
// on a machine that is still running: a halted or failed machine has no
// resumable state and is refused.
func (m *Machine) ExportState() (State, error) {
	if m.runErr != nil {
		return State{}, fmt.Errorf("cpu: cannot checkpoint a failed machine: %w", m.runErr)
	}
	if m.halted {
		return State{}, fmt.Errorf("cpu: cannot checkpoint a halted machine (%v)", m.haltReason)
	}
	st := State{
		R:            m.R,
		PSL:          m.PSL,
		IPR:          m.ipr,
		MMU:          m.MMU,
		IB:           m.ib.ExportState(),
		Cycle:        m.cycle,
		Instret:      m.instret,
		UPC:          m.upc,
		Gate:         m.gate,
		IRQs:         append([]IRQ(nil), m.irqs...),
		NextIRQ:      m.nextIRQ,
		LastPCChange: m.lastPCChange,
		PatchCtr:     m.patchCtr,
		WDLastRetire: m.wdLastRetire,
		MCPending:    m.mcPending,
		MCActive:     m.mcActive,
		PendMC:       m.pendMC,
		HW:           m.hw,
		Mem:          m.Mem.ExportState(),
		SBI:          m.SBI.ExportState(),
		WB:           m.WB.ExportState(),
		Cache:        m.Cache.ExportState(),
		TB:           m.TLB.ExportState(),
	}
	return st, nil
}

// ImportState restores a captured state into a machine built with the
// same Config as the one the state was exported from. Attachments
// (probe, fault plane, OnInstruction) are untouched; re-attach them
// before or after importing as needed.
func (m *Machine) ImportState(st State) error {
	if err := m.Mem.ImportState(st.Mem); err != nil {
		return err
	}
	if err := m.WB.ImportState(st.WB); err != nil {
		return err
	}
	if err := m.Cache.ImportState(st.Cache); err != nil {
		return err
	}
	m.SBI.ImportState(st.SBI)
	m.TLB.ImportState(st.TB)

	m.R = st.R
	m.PSL = st.PSL
	m.ipr = st.IPR
	m.MMU = st.MMU
	m.ib.dropWindow()
	m.ib.ImportState(st.IB)
	m.cycle = st.Cycle
	m.instret = st.Instret
	m.upc = st.UPC
	m.gate = st.Gate
	m.irqs = append([]IRQ(nil), st.IRQs...)
	m.nextIRQ = st.NextIRQ
	m.lastPCChange = st.LastPCChange
	m.patchCtr = st.PatchCtr
	m.wdLastRetire = st.WDLastRetire
	m.pendMC = st.PendMC
	m.mcPending = st.MCPending
	m.mcActive = st.MCActive
	m.hw = st.HW

	// A snapshot is only taken from a running machine.
	m.halted = false
	m.haltReason = HaltNone
	m.runErr = nil
	m.inExc = false
	m.instAborted = false
	return nil
}

// StateDump renders a diagnostic summary of the machine — registers,
// PSL, µPC, cycle counts and pending machine-check state — for
// watchdog reports and post-mortem messages.
func (m *Machine) StateDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "µpc=%#04x cycle=%d instret=%d pc=%#08x psl=%#08x mode=%d ipl=%d\n",
		m.upc, m.cycle, m.instret, m.ib.cur(), m.PSL, m.CurrentMode(), m.PSL>>16&0x1F)
	for i := 0; i < 16; i += 4 {
		for j := i; j < i+4; j++ {
			fmt.Fprintf(&b, "  %-3s=%#08x", vax.Reg(j).String(), m.R[j])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  ib: ptr=%#08x valid=%d fill=%v tbmiss=%v",
		m.ib.ptr, m.ib.valid, m.ib.fillPending, m.ib.tbMissPending)
	if m.mcPending || m.mcActive {
		fmt.Fprintf(&b, "\n  mcheck: pending=%v active=%v cause=%v info=%#x",
			m.mcPending, m.mcActive, m.pendMC.Cause, m.pendMC.Info)
	}
	return b.String()
}
