package vmos

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"vax780/internal/cpu"
)

// Checkpoint support. A System snapshot captures only the state that
// evolves after Boot: device schedules and per-process CPU accounting.
// Everything laid down by Boot — the process table, page tables, the
// kernel image, the SCB — lives in (checkpointed) physical memory or is
// rebuilt deterministically by the resume path, which reconstructs the
// System from the same Config and process set before importing. The
// statecomplete analyzer holds System to the split: every field is
// captured below or exempted at its declaration.

// State is the serialized post-boot scheduler and device state.
type State struct {
	NextClock  uint64
	TermEvents []uint64
	TermNext   int
	DiskSeen   uint32
	DiskDue    []uint64
	LastCycle  uint64
	LastPCB    uint32
	CPUTime    []ProcTime // sorted by PCB
}

// ProcTime is the CPU time charged to one process: the cycles spent
// while the process at PCB was resident.
type ProcTime struct {
	PCB    uint32
	Cycles uint64
}

// charge adds cycles to pcb's entry of t, inserting the entry in PCB
// order if it is new, and returns the table.
func charge(t []ProcTime, pcb uint32, cycles uint64) []ProcTime {
	i := sort.Search(len(t), func(i int) bool { return t[i].PCB >= pcb })
	if i == len(t) || t[i].PCB != pcb {
		t = slices.Insert(t, i, ProcTime{PCB: pcb})
	}
	t[i].Cycles += cycles
	return t
}

// ExportState captures the scheduler and device state (slices are
// copied; the system can keep running).
func (s *System) ExportState() (State, error) {
	if !s.booted {
		return State{}, fmt.Errorf("vmos: cannot checkpoint before boot")
	}
	st := State{
		NextClock:  s.nextClock,
		TermEvents: append([]uint64(nil), s.termEvents...),
		TermNext:   s.termNext,
		DiskSeen:   s.diskSeen,
		DiskDue:    append([]uint64(nil), s.diskDue...),
		LastCycle:  s.lastCycle,
		LastPCB:    s.lastPCB,
		CPUTime:    slices.Clone(s.cpuTime),
	}
	// The resident process's charge since it became resident is still
	// pending; the snapshot holds it folded in, as the table it replaces
	// did. (pend is zero only right after a switch, when that table had
	// not yet charged the new process either.)
	if s.pend != 0 {
		st.CPUTime = charge(st.CPUTime, s.lastPCB, s.pend)
	}
	return st, nil
}

// ImportState restores a captured state into a booted system built from
// the same configuration and process set. The machine state (including
// physical memory) is imported separately via cpu.Machine.ImportState.
func (s *System) ImportState(st State) error {
	if !s.booted {
		return fmt.Errorf("vmos: cannot restore before boot")
	}
	s.nextClock = st.NextClock
	s.termEvents = append([]uint64(nil), st.TermEvents...)
	s.termNext = st.TermNext
	s.diskSeen = st.DiskSeen
	s.diskDue = append([]uint64(nil), st.DiskDue...)
	s.lastCycle = st.LastCycle
	s.lastPCB = st.LastPCB
	s.pend = 0
	s.cpuTime = slices.Clone(st.CPUTime)
	return nil
}

// RunCtx executes for a cycle budget with cooperative cancellation (see
// cpu.Machine.RunCtx).
func (s *System) RunCtx(ctx context.Context, cycles uint64) cpu.RunResult {
	if !s.booted {
		return cpu.RunResult{Err: fmt.Errorf("vmos: not booted")}
	}
	return s.m.RunCtx(ctx, cycles)
}
