package vmos

import (
	"strings"
	"testing"

	"vax780/internal/asm"
	"vax780/internal/core"
)

// runService boots a one-process system whose program performs the given
// service calls and then spins.
func runService(t *testing.T, userSrc string, cycles uint64) (*System, *core.Monitor) {
	t.Helper()
	s := NewSystem(Config{IncludeNull: true})
	mon := core.NewMonitor()
	mon.Start()
	s.Machine().AttachProbe(mon)
	im, err := asm.Assemble(0x200, userSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if _, err := s.AddProcess("svc", im.Sparse()); err != nil {
		t.Fatal(err)
	}
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	s.SetScriptText("THE SCRIPT LINE. ")
	res := s.Run(cycles)
	if res.Err != nil || res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
	}
	return s, mon
}

func TestServiceTerminalRead(t *testing.T) {
	s, _ := runService(t, `
	MOVAL	buf, R2
	MOVL	#16, R3
	CHMK	#1		; terminal read: kernel copies script text
	MOVL	#1, @#0x1000	; done flag
spin:	BRB	spin
buf:	.space	64
`, 300_000)
	p := s.Processes()[0]
	if s.ReadUser(p, 0x1000) != 1 {
		t.Fatal("service sequence did not complete")
	}
	// The buffer must hold the head of the kernel's canned script; scan
	// the process's first pages for it.
	raw := s.Machine().Mem.Read(p.Base, 2048)
	if !strings.Contains(string(raw), "THE SCRIPT LINE.") {
		t.Error("script text not delivered to the user buffer")
	}
}

func TestServiceTerminalWriteReachesSink(t *testing.T) {
	s, _ := runService(t, `
	MOVAL	msg, R2
	MOVL	#12, R3
	CHMK	#2		; terminal write: kernel copies into its sink
	MOVL	#1, @#0x1000
spin:	BRB	spin
msg:	.ascii	"hello-kernel"
`, 300_000)
	p := s.Processes()[0]
	if s.ReadUser(p, 0x1000) != 1 {
		t.Fatal("service sequence did not complete")
	}
	sinkOff := s.kern.MustAddr("sink") - s.kern.Org
	sink := s.Machine().Mem.Read(kernPhys+sinkOff, 12)
	if string(sink) != "hello-kernel" {
		t.Errorf("kernel sink = %q, want %q", sink, "hello-kernel")
	}
}

func TestServiceGetTime(t *testing.T) {
	s, _ := runService(t, `
wait:	CHMK	#3		; R1 <- ticks
	TSTL	R1
	BEQL	wait		; spin until the first clock tick lands
	MOVL	R1, @#0x1000
spin:	BRB	spin
`, 400_000)
	p := s.Processes()[0]
	ticks := s.ReadUser(p, 0x1000)
	if ticks == 0 {
		t.Fatal("get-time returned zero after clock ticks")
	}
	if uint32(s.Ticks()) < ticks {
		t.Errorf("kernel ticks %d < returned %d", s.Ticks(), ticks)
	}
}

func TestServiceYieldRequestsReschedule(t *testing.T) {
	s, mon := runService(t, `
l:	CHMK	#0		; yield
	BRB	l
`, 200_000)
	if s.Machine().HW().SIRRRequests == 0 {
		t.Error("yield produced no software interrupt requests")
	}
	if mon.Snapshot().TotalCycles() == 0 {
		t.Error("nothing measured")
	}
}

func TestServiceDiskIO(t *testing.T) {
	s, _ := runService(t, `
	CHMK	#4		; queue a disk transfer
	CHMK	#4		; and another
	MOVL	#1, @#0x1000
spin:	BRB	spin
`, 400_000)
	p := s.Processes()[0]
	if s.ReadUser(p, 0x1000) != 1 {
		t.Fatal("service sequence did not complete")
	}
	if got := s.DiskRequests(); got != 2 {
		t.Errorf("disk requests = %d, want 2", got)
	}
	if got := s.DiskCompleted(); got != 2 {
		t.Errorf("disk completions = %d, want 2 (latency %d cycles)", got, 3000)
	}
	// The completion handler staged the block.
	stage := s.Machine().Mem.Read(kernPhys+s.kern.MustAddr("dstage")-s.kern.Org, 15)
	if string(stage) != "disk-block-data" {
		t.Errorf("staging buffer = %q", stage)
	}
}

func TestServiceDiskCompletionIsAsync(t *testing.T) {
	// The request must return to the user before the completion fires.
	s, _ := runService(t, `
	CHMK	#4
	MOVL	@#0x80000000, R9 ; placeholder read (user can proceed)
	MOVL	#1, @#0x1000
spin:	BRB	spin
`, 2_500) // shorter than the 3000-cycle disk latency
	p := s.Processes()[0]
	if s.ReadUser(p, 0x1000) != 1 {
		t.Skip("too few cycles for the user to get going")
	}
	if s.DiskCompleted() != 0 {
		t.Error("disk completed before its latency elapsed")
	}
}
