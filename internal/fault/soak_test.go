package fault_test

import (
	"context"
	"fmt"
	"testing"

	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/fault"
	"vax780/internal/vmos"
	"vax780/internal/workload"
)

// soakCycles satisfies the robustness acceptance bar: at least five
// million cycles of multiprogrammed OS workload with every injection
// point firing, and nothing worse than a machine check comes out.
const soakCycles = 6_000_000

// soakSystem builds a booted vmos system running a generated workload
// with the given fault plane attached, plus a collecting monitor.
func soakSystem(t *testing.T, plane *fault.Plane) (*vmos.System, *core.Monitor) {
	t.Helper()
	p, ok := workload.ByName("rte-commercial")
	if !ok {
		p = workload.All()[0]
	}
	sys := vmos.NewSystem(vmos.Config{IncludeNull: true})
	mon := core.NewMonitor()
	mon.Start()
	sys.Machine().AttachProbe(mon)
	sys.Machine().AttachFaultPlane(plane)
	for i := 0; i < p.Procs; i++ {
		im, err := workload.Generate(workload.GenConfig{
			Mix:       p.Mix,
			Blocks:    p.Blocks,
			LoopIter:  p.LoopIter,
			StringLen: p.StringLen,
			Seed:      p.Seed + int64(i)*1000,
		})
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		if _, err := sys.AddProcess(fmt.Sprintf("soak-%d", i), im.Sparse()); err != nil {
			t.Fatalf("add process: %v", err)
		}
	}
	if err := sys.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	sys.SetScriptText(p.Script)
	sys.QueueTerminalEvents(p.TerminalSchedule(soakCycles))
	return sys, mon
}

// TestChaosSoak runs a full OS workload for millions of cycles with all
// five injection points live. The machine must absorb every fault as an
// architectural machine check: no panic, no hard stop, the monitor's
// cycle-accounting identity intact, and the kernel's log in agreement
// with the hardware counters.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	plane := fault.NewPlane(fault.Config{
		Seed: 0x780C0FFEE,
		Sched: [fault.NumPoints]fault.Schedule{
			// Low background rates keep the error arrival well under the
			// kernel's per-tick retry budget; the Every backstops make
			// every point fire even if its reference stream is sparse.
			fault.MemRDS:      {Rate: 3e-5, Every: 200_000},
			fault.CacheParity: {Rate: 3e-5, Every: 250_000},
			fault.TBParity:    {Rate: 2e-5, Every: 300_000},
			fault.SBITimeout:  {Rate: 2e-4, Every: 20_000},
			fault.CSParity:    {Rate: 2e-5, Every: 100_000},
		},
	})
	sys, mon := soakSystem(t, plane)
	m := sys.Machine()

	res := sys.Run(soakCycles)
	if res.Err != nil {
		t.Fatalf("soak run failed: %v (reason %v)", res.Err, res.Reason)
	}
	if res.Halted {
		t.Fatalf("soak run halted: kernel declared an error storm after %d checks",
			sys.MachineChecks())
	}
	if m.Cycle() < soakCycles {
		t.Fatalf("ran %d cycles, want >= %d", m.Cycle(), soakCycles)
	}

	// Every injection point was consulted and fired.
	st := plane.Stats()
	for pt := fault.Point(0); pt < fault.NumPoints; pt++ {
		if st.Samples[pt] == 0 {
			t.Errorf("point %v was never sampled", pt)
		}
		if st.Injected[pt] == 0 {
			t.Errorf("point %v never fired (%d samples)", pt, st.Samples[pt])
		}
	}

	// The monitor's identity survived the chaos: every cycle is still
	// attributed to exactly one control-store location.
	hist := mon.Snapshot()
	if hist.TotalCycles() != m.Cycle() {
		t.Errorf("monitor identity broken: %d classified cycles != %d machine cycles",
			hist.TotalCycles(), m.Cycle())
	}

	// Machine checks were delivered, and the kernel's software log agrees
	// with the hardware counter (the final check may still be mid-handler
	// when the cycle budget expires, hence the one-count slack).
	hw := m.HW()
	if hw.MachineChecks == 0 {
		t.Fatal("no machine checks delivered")
	}
	kern := uint64(sys.MachineChecks())
	if kern > hw.MachineChecks || hw.MachineChecks-kern > 1 {
		t.Errorf("kernel logged %d machine checks, hardware delivered %d", kern, hw.MachineChecks)
	}
	var causes uint64
	for c := cpu.MCCause(0); c < cpu.NumMCCauses; c++ {
		causes += uint64(sys.MachineCheckCause(c))
	}
	if causes > kern || kern-causes > 1 {
		t.Errorf("per-cause log sums to %d, total log is %d", causes, kern)
	}

	// The histogram still reduces into the paper's tables.
	r := core.Reduce(hist, cpu.CS)
	if r.Instructions == 0 || r.CPI() <= 0 {
		t.Errorf("post-soak reduction degenerate: %d instructions, CPI %.3f",
			r.Instructions, r.CPI())
	}
}

// TestZeroRatePlaneIsFree proves injection-off observational transparency:
// a wired-up plane with all schedules zero yields a run bit-identical to
// one with no plane at all.
func TestZeroRatePlaneIsFree(t *testing.T) {
	const cycles = 300_000
	p := workload.All()[0]
	base, err := workload.Run(p, cycles, cpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	injected, err := workload.RunSupervised(context.Background(), workload.Spec{
		Profile: p, Cycles: cycles, Machine: cpu.Config{}, Fault: &fault.Config{Seed: 12345},
	}, workload.Supervisor{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles != injected.Cycles || base.Instructions != injected.Instructions {
		t.Fatalf("zero-rate plane perturbed the run: %d/%d cycles, %d/%d instructions",
			base.Cycles, injected.Cycles, base.Instructions, injected.Instructions)
	}
	if *base.Hist != *injected.Hist {
		t.Fatal("zero-rate plane perturbed the histogram")
	}
	if base.HW.MachineChecks != 0 || injected.HW.MachineChecks != 0 {
		t.Fatal("zero-rate plane delivered a machine check")
	}
}
