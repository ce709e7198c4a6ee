package vmos

import (
	"reflect"
	"testing"

	"vax780/internal/asm"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/vax"
)

// counterProgram increments a counter at P0 0x1000 forever, yielding and
// doing terminal I/O periodically.
const counterProgram = `
	MOVL	#0x1000, R7
start:	INCL	(R7)
	MOVL	#100, R8
w:	SOBGTR	R8, w
	MOVL	(R7), R9
	BICL2	#^XFFFFFFE0, R9	; every 32nd iteration: terminal write
	TSTL	R9
	BNEQ	start
	MOVAL	buf, R2
	MOVL	#24, R3
	CHMK	#2		; terminal write
	MOVAL	buf, R2
	MOVL	#24, R3
	CHMK	#1		; terminal read
	CHMK	#0		; yield
	BRB	start
buf:	.ascii	"abcdefghijklmnopqrstuvwx"
`

func buildSystem(t *testing.T, nproc int) (*System, *core.Monitor) {
	t.Helper()
	return buildSystemCfg(t, nproc, Config{IncludeNull: true})
}

func buildSystemCfg(t *testing.T, nproc int, cfg Config) (*System, *core.Monitor) {
	t.Helper()
	s := NewSystem(cfg)
	mon := core.NewMonitor()
	mon.Start()
	s.Machine().AttachProbe(mon)
	im, err := asm.Assemble(0x200, counterProgram)
	if err != nil {
		t.Fatalf("user assemble: %v", err)
	}
	for i := 0; i < nproc; i++ {
		if _, err := s.AddProcess("worker", im.Sparse()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	s.SetScriptText("the quick brown fox jumps over the lazy dog. ")
	return s, mon
}

func TestTimesharingRuns(t *testing.T) {
	s, _ := buildSystem(t, 3)
	// Terminal events roughly every 20k cycles.
	var events []uint64
	for c := uint64(10_000); c < 2_000_000; c += 20_000 {
		events = append(events, c)
	}
	s.QueueTerminalEvents(events)
	res := s.Run(2_000_000)
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	if res.Halted {
		t.Fatal("system halted unexpectedly (kernel fatal handler)")
	}
	if s.Ticks() == 0 {
		t.Error("no clock ticks")
	}
	if s.CtxSwitches() == 0 {
		t.Error("no context switches")
	}
	if s.TermEvents() == 0 {
		t.Error("no terminal interrupts handled")
	}
	// All three workers made progress.
	for _, p := range s.Processes() {
		if p.Null {
			continue
		}
		if got := s.ReadUser(p, 0x1000); got == 0 {
			t.Errorf("process %d made no progress", p.PID)
		}
	}
	// The TB must have been flushed by context switches.
	if s.Machine().TLB.Stats().ProcessFlushes == 0 {
		t.Error("no TB process flushes despite context switches")
	}
}

func TestNullProcessExcluded(t *testing.T) {
	// Force the null process into the rotation so its exclusion by the
	// monitor gate is observable.
	s, mon := buildSystemCfg(t, 1, Config{IncludeNull: true, NullInRotation: true})
	res := s.Run(1_000_000)
	if res.Err != nil || res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
	}
	h := mon.Snapshot()
	if h.TotalCycles() == 0 {
		t.Fatal("nothing measured")
	}
	// The null process must be excluded: measured cycles < machine cycles.
	if h.TotalCycles() >= s.Machine().Cycle() {
		t.Errorf("measured %d >= total %d: null process not excluded",
			h.TotalCycles(), s.Machine().Cycle())
	}
	// And the exclusion should be substantial (null shares the rotation).
	if float64(h.TotalCycles()) > 0.95*float64(s.Machine().Cycle()) {
		t.Errorf("only %.1f%% excluded; expected the null process share",
			100*(1-float64(h.TotalCycles())/float64(s.Machine().Cycle())))
	}
}

func TestReductionOnTimesharing(t *testing.T) {
	s, mon := buildSystem(t, 3)
	var events []uint64
	for c := uint64(5_000); c < 3_000_000; c += 15_000 {
		events = append(events, c)
	}
	s.QueueTerminalEvents(events)
	res := s.Run(3_000_000)
	if res.Err != nil || res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
	}
	r := core.Reduce(mon.Snapshot(), cpu.CS)
	if r.Instructions == 0 {
		t.Fatal("no instructions measured")
	}
	if cpi := r.CPI(); cpi < 4 || cpi > 30 {
		t.Errorf("CPI = %.2f implausible for timesharing", cpi)
	}
	// System activity must be visible: interrupts, context switches,
	// software interrupt requests (Table 7 events).
	if r.Headway.Interrupts == 0 || r.Headway.CtxSwitches == 0 || r.Headway.SoftIntRequests == 0 {
		t.Errorf("missing Table 7 events: %+v", r.Headway)
	}
	// TB misses from context switching (process half flushed).
	if r.TBMiss.DStreamMisses+r.TBMiss.IStreamMisses == 0 {
		t.Error("no TB misses despite TB flushes")
	}
	if cpm := r.TBMiss.CyclesPerMiss(); cpm < 12 || cpm > 40 {
		t.Errorf("TB miss service %.1f cycles, want near 21.6", cpm)
	}
	// The mix must contain SYSTEM (CHMK/REI/LDPCTX...), CHARACTER (MOVC3
	// in kernel services), CALL/RET (PUSHR/POPR in handlers) and SIMPLE.
	for _, g := range []vax.Group{vax.GroupSimple, vax.GroupSystem, vax.GroupCharacter, vax.GroupCallRet} {
		if r.Groups[g] == 0 {
			t.Errorf("group %v absent from measured mix", g)
		}
	}
	// Decode must cost at least one compute cycle per instruction.
	if r.Timing[0].Compute < 0.999 {
		t.Errorf("decode compute = %.3f cycles/instr, want >= 1", r.Timing[0].Compute)
	}
}

func TestBootErrors(t *testing.T) {
	s := NewSystem(Config{})
	if err := s.Boot(); err == nil {
		t.Error("boot with no processes should fail")
	}
	s2, _ := buildSystem(t, 1)
	if err := s2.Boot(); err == nil {
		t.Error("double boot should fail")
	}
	im, _ := asm.Assemble(0x200, "HALT\n")
	if _, err := s2.AddProcess("late", im.Sparse()); err == nil {
		t.Error("AddProcess after boot should fail")
	}
}

func TestSchedulerFairness(t *testing.T) {
	// Identical processes in the rotation must progress at comparable
	// rates across many quanta.
	s, _ := buildSystem(t, 4)
	res := s.Run(4_000_000)
	if res.Err != nil || res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
	}
	var counts []uint32
	for _, p := range s.Processes() {
		if p.Null {
			continue
		}
		counts = append(counts, s.ReadUser(p, 0x1000))
	}
	if len(counts) != 4 {
		t.Fatalf("worker count = %d", len(counts))
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 {
		t.Fatal("a worker made no progress")
	}
	if float64(max-min)/float64(max) > 0.25 {
		t.Errorf("unfair scheduling: progress %v", counts)
	}
}

func TestPerProcessCPUAccounting(t *testing.T) {
	s, _ := buildSystem(t, 3)
	res := s.Run(2_000_000)
	if res.Err != nil || res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
	}
	var total uint64
	for _, p := range s.Processes() {
		if p.Null {
			continue
		}
		ct := s.CPUTime(p)
		if ct == 0 {
			t.Errorf("process %d charged no time", p.PID)
		}
		total += ct
	}
	// The workers' time must account for the bulk of the run (kernel and
	// accounting granularity take the rest).
	if float64(total) < 0.8*float64(res.Cycles) {
		t.Errorf("accounted %d of %d cycles", total, res.Cycles)
	}
}

// TestCPUAccountingMatchesPerInstructionTable checks the folded
// accounting against the table it replaced, which charged the resident
// PCB's map entry on every instruction: at every boundary sampled, the
// snapshot's CPUTime and each process's CPUTime must equal that table
// exactly, key for key.
func TestCPUAccountingMatchesPerInstructionTable(t *testing.T) {
	s, _ := buildSystem(t, 3)
	m := s.Machine()
	want := map[uint32]uint64{}
	lastCycle, lastPCB := uint64(0), m.IPR(cpu.IPRSlotPCBB)
	hook := m.OnInstruction
	m.OnInstruction = func(m *cpu.Machine) {
		want[lastPCB] += m.Cycle() - lastCycle
		lastCycle, lastPCB = m.Cycle(), m.IPR(cpu.IPRSlotPCBB)
		hook(m)
	}
	for i := 0; i < 40; i++ {
		if res := s.Run(50_000 + uint64(i)*997); res.Err != nil || res.Halted {
			t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
		}
		st, err := s.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		got := map[uint32]uint64{}
		for j, e := range st.CPUTime {
			if j > 0 && st.CPUTime[j-1].PCB >= e.PCB {
				t.Fatalf("boundary %d: snapshot CPUTime not in PCB order: %v", i, st.CPUTime)
			}
			got[e.PCB] = e.Cycles
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("boundary %d: snapshot CPUTime %v, per-instruction table %v", i, st.CPUTime, want)
		}
		for _, p := range s.Processes() {
			if got := s.CPUTime(p); got != want[p.PCB] {
				t.Fatalf("boundary %d: CPUTime(%d) = %d, want %d", i, p.PID, got, want[p.PCB])
			}
		}
	}
	if s.CtxSwitches() == 0 {
		t.Fatal("no context switch: the fold was never exercised")
	}
}
