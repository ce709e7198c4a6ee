package cpu

import (
	"errors"
	"strings"
	"testing"

	"vax780/internal/asm"
	"vax780/internal/vax"
)

// TestWatchdogConvertsWedgedMachine arms the progress watchdog with a
// budget far smaller than one long string instruction: the machine burns
// thousands of cycles without retiring, the watchdog fires mid-
// instruction, and the run ends with a structured *MachineError carrying
// the stuck µPC and a diagnostic state dump — not an endless spin.
func TestWatchdogConvertsWedgedMachine(t *testing.T) {
	im, err := asm.Assemble(0x1000, `
	MOVC3	#4096, src, dst
	HALT
src:	.space	4096
dst:	.space	4096
`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(Config{MemBytes: 1 << 20})
	m.Mem.Load(im.Org, im.Bytes)
	m.R[vax.SP] = 0x8000
	m.SetPC(im.Org)
	m.SetWatchdog(300)

	res := m.Run(2_000_000)
	if res.Err == nil {
		t.Fatalf("wedged machine ran to completion (halted=%v after %d cycles)", res.Halted, res.Cycles)
	}
	var me *MachineError
	if !errors.As(res.Err, &me) {
		t.Fatalf("want *MachineError, got %T: %v", res.Err, res.Err)
	}
	if !strings.Contains(me.Msg, "watchdog") {
		t.Errorf("error does not identify the watchdog: %q", me.Msg)
	}
	if !strings.Contains(me.Msg, "µpc") {
		t.Errorf("error does not report the stuck µpc: %q", me.Msg)
	}
	if me.Dump == "" {
		t.Error("watchdog error carries no state dump")
	}
	for _, want := range []string{"r0", "psl", "cycle"} {
		if !strings.Contains(strings.ToLower(me.Dump), want) {
			t.Errorf("state dump missing %q:\n%s", want, me.Dump)
		}
	}
	// The run must end within the wedged instruction (string loops poll
	// no flags, so the error surfaces at the instruction's end), far
	// inside the 2M-cycle budget.
	if res.Cycles > 100_000 {
		t.Errorf("watchdog let the machine spin for %d cycles", res.Cycles)
	}
}

// TestWatchdogQuietOnProgress: a program that retires instructions
// steadily must never trip even a small watchdog budget (every retirement
// resets the clock).
func TestWatchdogQuietOnProgress(t *testing.T) {
	im, err := asm.Assemble(0x1000, `
	MOVL	#2000, R7
loop:	SOBGTR	R7, loop
	HALT
`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(Config{MemBytes: 1 << 20})
	m.Mem.Load(im.Org, im.Bytes)
	m.R[vax.SP] = 0x8000
	m.SetPC(im.Org)
	m.SetWatchdog(300)
	res := m.Run(2_000_000)
	if res.Err != nil {
		t.Fatalf("watchdog tripped on a progressing machine: %v", res.Err)
	}
	if !res.Halted {
		t.Fatal("program did not halt")
	}
}

// TestTicksWatchdogSplit arms the watchdog so that it expires on the
// first, a middle and the last cycle of one ticks run. The folded count
// must stop the machine exactly as the same cycles ticked one at a time
// do: the same error cycle, µPC, message and dump, the same final cycle
// and the same histogram.
func TestTicksWatchdogSplit(t *testing.T) {
	const pre, n = 3, 8 // cycles before the run, cycles in it
	for _, at := range []int{1, n / 2, n} {
		run := func(perCycle bool) (*MachineError, *Machine, *testProbe) {
			m := New(Config{MemBytes: 1 << 16})
			p := newTestProbe()
			m.AttachProbe(p)
			m.SetWatchdog(uint64(pre + at - 1)) // expires on the run's cycle at
			for i := 0; i < pre; i++ {
				m.tick(uw.ird)
			}
			if perCycle {
				for i := 0; i < n; i++ {
					m.tick(uw.chWork)
				}
			} else {
				m.ticks(uw.chWork, n)
			}
			var me *MachineError
			if !errors.As(m.Err(), &me) {
				t.Fatalf("expiry on cycle %d of %d: want *MachineError, got %v", at, n, m.Err())
			}
			return me, m, p
		}
		want, wm, wp := run(true)
		got, gm, gp := run(false)
		if got.Cycle != want.Cycle || got.UPC != want.UPC || got.Msg != want.Msg || got.Dump != want.Dump {
			t.Errorf("expiry on cycle %d of %d: ticks stopped at cycle %d µpc %#04x %q, per-cycle at %d µpc %#04x %q",
				at, n, got.Cycle, got.UPC, got.Msg, want.Cycle, want.UPC, want.Msg)
		}
		if gm.Cycle() != wm.Cycle() || gp.counts[uw.chWork] != wp.counts[uw.chWork] {
			t.Errorf("expiry on cycle %d of %d: ticks ran to cycle %d with %d counts, per-cycle to %d with %d",
				at, n, gm.Cycle(), gp.counts[uw.chWork], wm.Cycle(), wp.counts[uw.chWork])
		}
	}
}
