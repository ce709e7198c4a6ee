package cpu

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"vax780/internal/mem"
	"vax780/internal/mmu"
	"vax780/internal/vax"
)

// Memo fixture layout (1 MB, physical addresses): every byte starts as a
// pattern of its own address, so a wrong frame reads wrong data. The
// system page table maps S0 page i to frame i; P0 table A (S0 page 0x80)
// maps P0 page j to frame 0x100+j^1, so neighbouring pages are never
// neighbouring frames, and table B (S0 page 0x90) to 0x200+j.
const (
	mfSysPT  = 0x1000
	mfSLR    = 512
	mfTableA = 0x10000
	mfTableB = 0x12000
	mfP0LR   = 128
	mfCode   = 0x4000 // S0 code page for instruction-level mutations
	mfPCB    = 0x6000
	mfKStack = 0x8000 // grows down
)

func newMemoMachine(ref bool) *Machine {
	m := New(Config{MemBytes: 1 << 20})
	m.refXlate = ref
	pattern := make([]byte, 1<<20)
	for pa := range pattern {
		pattern[pa] = byte(pa>>mmu.PageShift) ^ byte(pa)*7
	}
	m.Mem.Load(0, pattern)
	for i := uint32(0); i < mfSLR; i++ {
		m.Mem.WriteLong(mfSysPT+4*i, mmu.MakePTE(i, mmu.ProtKW))
	}
	for j := uint32(0); j < mfP0LR; j++ {
		m.Mem.WriteLong(mfTableA+4*j, mmu.MakePTE(0x100+j^1, mmu.ProtUW))
		m.Mem.WriteLong(mfTableB+4*j, mmu.MakePTE(0x200+j, mmu.ProtUW))
	}
	m.MMU = mmu.Registers{
		SBR:     mfSysPT,
		SLR:     mfSLR,
		P0BR:    mmuS0(mfTableA),
		P0LR:    mfP0LR,
		P1BR:    mmuS0(mfTableA),
		Enabled: true,
	}
	return m
}

func mmuS0(pa uint32) uint32 { return 0x80000000 | pa }

// hotVAs fills every memo slot exactly once: P0 pages 0..31 take slots
// 0..31 and S0 pages 0x20..0x3F slots 32..63. Warmed and then probed
// before anything else translates, each is answered from its memo entry,
// so a stale entry cannot hide behind an eviction.
func hotVAs() []uint32 {
	var vas []uint32
	for j := uint32(0); j < memoSize/2; j++ {
		vas = append(vas, j*mmu.PageSize+0x1F)
	}
	for i := uint32(memoSize / 2); i < memoSize; i++ {
		vas = append(vas, mmuS0(i*mmu.PageSize+0x103))
	}
	return vas
}

// sweepVAs spans every region: P0 pages inside and beyond P0LR, S0
// pages inside and beyond SLR, P1 (length zero) and the reserved region.
func sweepVAs() []uint32 {
	var vas []uint32
	for j := uint32(0); j < mfP0LR+8; j++ {
		vas = append(vas, j*mmu.PageSize+0x1F)
	}
	for i := uint32(0); i < mfSLR+16; i += 3 {
		vas = append(vas, mmuS0(i*mmu.PageSize+0x103))
	}
	return append(vas, 0x40000000, 0xC0000000)
}

// requireAgree fails unless vtop answers exactly what the reference walk
// does on the machine's current registers and memory: first for the
// memo-resident hot set, then over the whole sweep, then for the hot set
// again once the sweep has refilled it.
func requireAgree(t *testing.T, m *Machine) {
	t.Helper()
	for pass, vas := range [][]uint32{hotVAs(), sweepVAs(), hotVAs()} {
		for _, va := range vas {
			want, werr := mmu.Translate(va, &m.MMU, m.Mem)
			got, gerr := m.vtop(va)
			if (werr == nil) != (gerr == nil) || (werr == nil && got != want) {
				t.Fatalf("pass %d: vtop(%#x) = %#x, %v; reference walk = %#x, %v", pass, va, got, gerr, want, werr)
			}
		}
	}
}

func warmMemo(m *Machine) {
	for _, va := range hotVAs() {
		_, _ = m.vtop(va)
	}
}

// runKernelInstruction executes one instruction from S0 in kernel mode.
func runKernelInstruction(t *testing.T, m *Machine, code ...byte) {
	t.Helper()
	for i, b := range code {
		m.Mem.SetByte(mfCode+uint32(i), b) // not Load: that alone would empty the memo
	}
	m.PSL = 0
	m.R[vax.SP] = mmuS0(mfKStack)
	m.SetPC(mmuS0(mfCode))
	m.StepInstruction()
	if err := m.Err(); err != nil {
		t.Fatalf("instruction failed: %v", err)
	}
}

// TestVtopMemoInvalidation applies each change that can alter a
// translation to a warm memo and demands the reference walk's answer
// afterwards. Every mutation is applied to a second machine that
// translates every byte with mmu.Translate, and the two memories must
// end identical.
func TestVtopMemoInvalidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, m *Machine)
	}{
		{"guest store into a process PTE", func(t *testing.T, m *Machine) {
			m.writeVirt(mmuS0(mfTableA+4*3), 4, uint64(mmu.MakePTE(0x300, mmu.ProtUW)))
		}},
		{"guest store invalidating a process PTE", func(t *testing.T, m *Machine) {
			m.writeVirt(mmuS0(mfTableA+4*7), 4, 0)
		}},
		{"guest store into a system PTE", func(t *testing.T, m *Machine) {
			m.writeVirt(mmuS0(mfSysPT+4*0x30), 4, uint64(mmu.MakePTE(0x350, mmu.ProtKW)))
		}},
		{"guest store into the system PTE mapping a process page table", func(t *testing.T, m *Machine) {
			m.writeVirt(mmuS0(mfSysPT+4*(mfTableA>>mmu.PageShift)), 4, uint64(mmu.MakePTE(mfTableB>>mmu.PageShift, mmu.ProtKW)))
		}},
		{"MTPR P0BR", func(t *testing.T, m *Machine) { m.prWrite(PRP0BR, mmuS0(mfTableB)) }},
		{"MTPR P0LR", func(t *testing.T, m *Machine) { m.prWrite(PRP0LR, 10) }},
		{"MTPR SBR", func(t *testing.T, m *Machine) { m.prWrite(PRSBR, mfSysPT+4*8) }},
		{"MTPR SLR", func(t *testing.T, m *Machine) { m.prWrite(PRSLR, 100) }},
		{"MTPR instruction to P0BR", func(t *testing.T, m *Machine) {
			// MTPR #^x80012000 (immediate longword), #8 (short literal).
			b := mmuS0(mfTableB)
			runKernelInstruction(t, m, byte(vax.MTPR), 0x8F, byte(b), byte(b>>8), byte(b>>16), byte(b>>24), PRP0BR)
		}},
		{"MAPEN off", func(t *testing.T, m *Machine) { m.prWrite(PRMAPEN, 0) }},
		{"MAPEN off and on", func(t *testing.T, m *Machine) {
			m.prWrite(PRMAPEN, 0)
			warmMemo(m)
			m.prWrite(PRMAPEN, 1)
		}},
		{"LDPCTX", func(t *testing.T, m *Machine) {
			m.Mem.WriteLong(mfPCB+PCBOffset(pcbKSP), mmuS0(mfKStack))
			m.Mem.WriteLong(mfPCB+PCBOffset(pcbP0BR), mmuS0(mfTableB))
			m.Mem.WriteLong(mfPCB+PCBOffset(pcbP0LR), 32)
			m.Mem.WriteLong(mfPCB+PCBOffset(pcbP1BR), mmuS0(mfTableB))
			m.Mem.WriteLong(mfPCB+PCBOffset(pcbP1LR), 0)
			m.SetIPR(IPRSlotPCBB, mfPCB)
			warmMemo(m)
			runKernelInstruction(t, m, byte(vax.LDPCTX))
			if m.MMU.P0BR != mmuS0(mfTableB) {
				t.Fatalf("LDPCTX did not load P0BR: %+v", m.MMU)
			}
		}},
		{"ImportState", func(t *testing.T, m *Machine) {
			// A snapshot with the same registers but a rewritten page
			// table: only the memory generation tells the memo.
			other := newMemoMachine(m.refXlate)
			other.Mem.WriteLong(mfTableA+4*3, mmu.MakePTE(0x300, mmu.ProtUW))
			other.Mem.WriteLong(mfSysPT+4*0x30, 0)
			st, err := other.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.ImportState(st); err != nil {
				t.Fatal(err)
			}
		}},
		{"physical longword store straddling into a page table", func(t *testing.T, m *Machine) {
			m.Mem.WriteLong(mfTableA-2, 0x0203_0000)
		}},
		{"store into the second frame of a straddling PTE", func(t *testing.T, m *Machine) {
			// PTE 10 spans the end of table B's frame and the start of
			// the next; the store clears its valid bit in the second. P0LR
			// ends the table at PTE 10, so no other walk reads that frame.
			pt := uint32(mfTableB + mmu.PageSize - 2 - 4*10)
			m.prWrite(PRP0BR, mmuS0(pt))
			m.prWrite(PRP0LR, 11)
			m.Mem.WriteLong(pt+4*10, mmu.MakePTE(0x140, mmu.ProtUW))
			warmMemo(m)
			m.writeVirt(mmuS0(mfTableB+mmu.PageSize+1), 1, 0)
		}},
		{"store that rewrites its own mapping", func(t *testing.T, m *Machine) {
			// P0 page 5 maps table A's own frame, so a store through it to
			// PTE 5 remaps the page after its first byte lands.
			m.Mem.WriteLong(mfTableA+4*5, mmu.MakePTE(mfTableA>>mmu.PageShift, mmu.ProtUW))
			warmMemo(m)
			m.writeVirt(5*mmu.PageSize+4*5, 4, uint64(mmu.MakePTE(0x301, mmu.ProtUW)))
			// Across a page boundary, through a PTE that straddles two
			// frames: P0BR puts PTE 10 in the last two bytes of table B's
			// frame and the first two of the next, and P0 page 9 maps
			// table B's frame. A longword stored at the end of page 9
			// rewrites PTE 10's low half, then stores its upper half
			// through the new page 10 mapping.
			pt := uint32(mfTableB + mmu.PageSize - 2 - 4*10)
			m.prWrite(PRP0BR, mmuS0(pt))
			m.Mem.WriteLong(pt+4*9, mmu.MakePTE(mfTableB>>mmu.PageShift, mmu.ProtUW))
			m.Mem.WriteLong(pt+4*10, mmu.MakePTE(0x140, mmu.ProtUW))
			warmMemo(m)
			m.writeVirt(10*mmu.PageSize-2, 4, 0x0102_0304)
			if got, _ := mmu.Translate(10*mmu.PageSize, &m.MMU, m.Mem); got>>mmu.PageShift != 0x304 {
				t.Fatalf("page 10 maps frame %#x after the store, want 0x304", got>>mmu.PageShift)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fast, ref := newMemoMachine(false), newMemoMachine(true)
			requireAgree(t, fast)
			for _, m := range []*Machine{fast, ref} {
				warmMemo(m)
				c.mutate(t, m)
			}
			requireAgree(t, fast)
			if fast.MMU != ref.MMU {
				t.Fatalf("registers diverged: %+v vs reference %+v", fast.MMU, ref.MMU)
			}
			if !bytes.Equal(fast.Mem.Read(0, 1<<20), ref.Mem.Read(0, 1<<20)) {
				t.Fatal("memory diverged from the per-byte reference path")
			}
		})
	}
}

// TestFunctionalPageRuns checks every access shape against the per-byte
// reference: reads, writes and I-stream peeks of 1 to 8 bytes at every
// offset around a boundary between two pages whose frames are apart.
func TestFunctionalPageRuns(t *testing.T) {
	fast, ref := newMemoMachine(false), newMemoMachine(true)
	for size := 1; size <= 8; size++ {
		for va := uint32(4*mmu.PageSize - 9); va <= 4*mmu.PageSize; va++ {
			if got, want := fast.readVirt(va, size), ref.readVirt(va, size); got != want {
				t.Fatalf("readVirt(%#x, %d) = %#x, reference %#x", va, size, got, want)
			}
			fast.ib.ptr, ref.ib.ptr = va, va
			if got, want := fast.ib.peek(size), ref.ib.peek(size); !bytes.Equal(got, want) {
				t.Fatalf("peek at %#x, %d bytes = % x, reference % x", va, size, got, want)
			}
			v := uint64(va)*0x9E3779B97F4A7C15 + uint64(size)
			fast.writeVirt(va, size, v)
			ref.writeVirt(va, size, v)
		}
	}
	if !bytes.Equal(fast.Mem.Read(0, 1<<20), ref.Mem.Read(0, 1<<20)) {
		t.Fatal("writes diverged from the per-byte reference path")
	}
}

// TestVtopMemoHitReadsNoPTE checks the memo does its job: a warm page
// translates without a page-table read, and a store into a page table
// sends the next translation back to the walk.
func TestVtopMemoHitReadsNoPTE(t *testing.T) {
	m := newMemoMachine(false)
	var reads int
	m.Mem.SetInjector(func() bool { reads++; return false })
	va := uint32(3*mmu.PageSize + 8)
	if _, err := m.vtop(va); err != nil || reads != 2 {
		t.Fatalf("cold P0 translation: %d PTE reads, err %v; want the 2 of a nested walk", reads, err)
	}
	reads = 0
	if _, err := m.vtop(va + 100); err != nil || reads != 0 {
		t.Fatalf("warm translation: %d PTE reads, err %v; want 0", reads, err)
	}
	m.writeVirt(mmuS0(mfTableA+4*60), 4, 0)
	reads = 0
	if _, err := m.vtop(va); err != nil || reads != 2 {
		t.Fatalf("translation after a page-table store: %d PTE reads, err %v; want 2", reads, err)
	}
	m.writeVirt(mmuS0(0x300*mmu.PageSize), 4, 0) // not a page table
	reads = 0
	if _, err := m.vtop(va); err != nil || reads != 0 {
		t.Fatalf("translation after an ordinary store: %d PTE reads, err %v; want 0", reads, err)
	}
}

// BenchmarkVtop times one functional translation on a memo hit and on a
// miss (two P0 pages sharing a memo slot, so every call walks).
func BenchmarkVtop(b *testing.B) {
	m := newMemoMachine(false)
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.vtop(3*mmu.PageSize + 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.vtop(uint32(1+memoSize*(i&1))*mmu.PageSize + 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReadVirt times a functional longword read within one page and
// one that crosses into the next.
func BenchmarkReadVirt(b *testing.B) {
	m := newMemoMachine(false)
	for _, c := range []struct {
		name string
		va   uint32
	}{{"aligned", 3*mmu.PageSize + 8}, {"cross-page", 4*mmu.PageSize - 2}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.readVirt(c.va, 4)
			}
		})
	}
}

// Frame-window fixture: code runs in kernel mode from P0 page 2 (VA
// 0x400), which table A maps to frame 0x103; table B maps it to 0x202.
const (
	wfCode   = 2 * mmu.PageSize
	wfFrameA = 0x103 << mmu.PageShift
	wfFrameB = 0x202 << mmu.PageShift
	wfFrameC = 0x140 << mmu.PageShift // a spare frame for remapped code
)

// place stores code at va through the machine's current translation,
// byte by byte, with physical stores that touch no page table.
func place(t *testing.T, m *Machine, va uint32, code ...byte) {
	t.Helper()
	for i, b := range code {
		pa, err := mmu.Translate(va+uint32(i), &m.MMU, m.Mem)
		if err != nil {
			t.Fatalf("place at %#x: %v", va+uint32(i), err)
		}
		m.Mem.SetByte(pa, b)
	}
}

// startKernel points the machine at va in kernel mode with a valid stack.
func startKernel(m *Machine, va uint32) {
	m.PSL = 0
	m.R[vax.SP] = mmuS0(mfKStack)
	m.SetPC(va)
}

// steps runs n instructions, stopping early if the machine halts.
func steps(m *Machine, n int) {
	for i := 0; i < n && !m.Halted(); i++ {
		m.StepInstruction()
	}
}

// movl0 is MOVL S^#lit, R0: its literal tells which copy of the code ran.
func movl0(lit byte) []byte { return []byte{byte(vax.MOVL), lit, 0x50} }

func le32(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }

// requireSameMachine fails unless two machines agree on every piece of
// architectural state, the stop condition, physical memory, the latched
// memory fault and the I-Fetch counters. It takes and returns the latched
// fault (zero if none).
func requireSameMachine(t *testing.T, fast, ref *Machine) mem.Fault {
	t.Helper()
	if fast.R != ref.R || fast.PSL != ref.PSL || fast.PCVal() != ref.PCVal() || fast.Halted() != ref.Halted() {
		t.Fatalf("state diverged: R=%x PSL=%#x PC=%#x halted=%v; reference R=%x PSL=%#x PC=%#x halted=%v",
			fast.R, fast.PSL, fast.PCVal(), fast.Halted(), ref.R, ref.PSL, ref.PCVal(), ref.Halted())
	}
	if fe, re := fmt.Sprint(fast.Err()), fmt.Sprint(ref.Err()); fe != re {
		t.Fatalf("errors diverged: %s; reference %s", fe, re)
	}
	if fast.MMU != ref.MMU || fast.Cycle() != ref.Cycle() || fast.IBStats() != ref.IBStats() {
		t.Fatalf("MMU, cycles or IB counters diverged: %+v %d %+v; reference %+v %d %+v",
			fast.MMU, fast.Cycle(), fast.IBStats(), ref.MMU, ref.Cycle(), ref.IBStats())
	}
	ff, fok := fast.Mem.TakeFault()
	rf, rok := ref.Mem.TakeFault()
	if ff != rf || fok != rok {
		t.Fatalf("latched faults diverged: %+v (%v); reference %+v (%v)", ff, fok, rf, rok)
	}
	size := int(fast.Mem.Size())
	if !bytes.Equal(fast.Mem.Read(0, size), ref.Mem.Read(0, size)) {
		t.Fatal("memory diverged from the per-byte reference path")
	}
	return ff
}

// TestFrameWindow runs code through each change that can make the I-box's
// frame window stale, on a machine that decodes from the window and on
// one that translates every I-stream byte with mmu.Translate. Each case
// checks that the decode saw the change; then the two machines must
// agree on registers, memory, latched faults and I-Fetch counters.
func TestFrameWindow(t *testing.T) {
	cases := []struct {
		name  string
		run   func(t *testing.T, m *Machine)
		fault mem.Fault // the latched fault the run must leave
	}{
		{"store into the code page ahead of PC", func(t *testing.T, m *Machine) {
			// MOVB S^#9, @#<literal of the next instruction>; MOVL S^#1, R0.
			code := append([]byte{byte(vax.MOVB), 0x09, 0x9F}, le32(wfCode+8)...)
			place(t, m, wfCode, append(code, movl0(1)...)...)
			startKernel(m, wfCode)
			steps(m, 2)
			if m.R[0] != 9 {
				t.Fatalf("R0 = %d: the decode missed the store into its page", m.R[0])
			}
		}, mem.Fault{}},
		{"store into the PTE mapping the code page", func(t *testing.T, m *Machine) {
			// MOVL #PTE(frame C), @#PTE of page 2; the next instruction
			// comes from frame C.
			code := append([]byte{byte(vax.MOVL), 0x8F}, le32(mmu.MakePTE(wfFrameC>>mmu.PageShift, mmu.ProtUW))...)
			code = append(append(code, 0x9F), le32(mmuS0(mfTableA+4*2))...)
			place(t, m, wfCode, append(code, movl0(1)...)...)
			for i, b := range movl0(9) {
				m.Mem.SetByte(wfFrameC+uint32(len(code)+i), b)
			}
			startKernel(m, wfCode)
			steps(m, 2)
			if m.R[0] != 9 {
				t.Fatalf("R0 = %d: the decode read the old frame", m.R[0])
			}
		}, mem.Fault{}},
		{"MTPR P0BR", func(t *testing.T, m *Machine) {
			code := append(append([]byte{byte(vax.MTPR), 0x8F}, le32(mmuS0(mfTableB))...), PRP0BR)
			place(t, m, wfCode, append(code, movl0(1)...)...)
			for i, b := range movl0(9) {
				m.Mem.SetByte(wfFrameB+uint32(len(code)+i), b)
			}
			startKernel(m, wfCode)
			steps(m, 2)
			if m.R[0] != 9 {
				t.Fatalf("R0 = %d: the decode used table A after MTPR P0BR", m.R[0])
			}
		}, mem.Fault{}},
		{"registers set between instructions", func(t *testing.T, m *Machine) {
			// As the OS layer's boot path does: no instruction runs the
			// write, so only the boundary check can see it.
			place(t, m, wfCode, append(movl0(2), movl0(1)...)...)
			for i, b := range movl0(9) {
				m.Mem.SetByte(wfFrameB+3+uint32(i), b)
			}
			startKernel(m, wfCode)
			steps(m, 1)
			m.MMU.P0BR = mmuS0(mfTableB)
			steps(m, 1)
			if m.R[0] != 9 {
				t.Fatalf("R0 = %d: the decode used table A after P0BR changed", m.R[0])
			}
		}, mem.Fault{}},
		{"LDPCTX", func(t *testing.T, m *Machine) {
			m.Mem.WriteLong(mfPCB+PCBOffset(pcbKSP), mmuS0(mfKStack))
			m.Mem.WriteLong(mfPCB+PCBOffset(pcbP0BR), mmuS0(mfTableB))
			m.Mem.WriteLong(mfPCB+PCBOffset(pcbP0LR), 32)
			m.Mem.WriteLong(mfPCB+PCBOffset(pcbP1BR), mmuS0(mfTableB))
			m.Mem.WriteLong(mfPCB+PCBOffset(pcbP1LR), 0)
			m.SetIPR(IPRSlotPCBB, mfPCB)
			place(t, m, wfCode, append([]byte{byte(vax.LDPCTX)}, movl0(1)...)...)
			for i, b := range movl0(9) {
				m.Mem.SetByte(wfFrameB+1+uint32(i), b)
			}
			startKernel(m, wfCode)
			steps(m, 2)
			if m.R[0] != 9 {
				t.Fatalf("R0 = %d: the decode used the old P0 mapping after LDPCTX", m.R[0])
			}
		}, mem.Fault{}},
		{"ImportState", func(t *testing.T, m *Machine) {
			// The snapshot has the same registers and PC but maps the
			// code page to frame C: only the memory generation tells.
			place(t, m, wfCode, append(movl0(2), movl0(1)...)...)
			startKernel(m, wfCode)
			steps(m, 1)
			other := newMemoMachine(m.refXlate)
			other.Mem.WriteLong(mfTableA+4*2, mmu.MakePTE(wfFrameC>>mmu.PageShift, mmu.ProtUW))
			place(t, other, wfCode+3, movl0(9)...)
			startKernel(other, wfCode+3)
			other.R[0] = 2
			st, err := other.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.ImportState(st); err != nil {
				t.Fatal(err)
			}
			steps(m, 1)
			if m.R[0] != 9 {
				t.Fatalf("R0 = %d: the decode read the frame mapped before the import", m.R[0])
			}
		}, mem.Fault{}},
		{"instruction straddling a page", func(t *testing.T, m *Machine) {
			// MOVL S^#2, R2 warms the window on page 2; MOVL #imm, R0
			// crosses into page 3, whose frame is not the next one.
			va := uint32(wfCode + mmu.PageSize - 6)
			code := []byte{byte(vax.MOVL), 0x02, 0x52, byte(vax.MOVL), 0x8F}
			code = append(append(code, le32(0x11223344)...), 0x50)
			place(t, m, va, append(code, byte(vax.MOVL), 0x09, 0x51)...)
			startKernel(m, va)
			steps(m, 3)
			if m.R[0] != 0x11223344 || m.R[1] != 9 || m.R[2] != 2 {
				t.Fatalf("R0..R2 = %#x %#x %#x", m.R[0], m.R[1], m.R[2])
			}
		}, mem.Fault{}},
		{"code in a frame past the end of memory", func(t *testing.T, m *Machine) {
			// JMP @#page 4, which maps a frame beyond the 1 MB array: the
			// opcode reads as zero (HALT) and latches a range fault.
			m.Mem.WriteLong(mfTableA+4*4, mmu.MakePTE(0x900, mmu.ProtUW))
			place(t, m, wfCode, append([]byte{byte(vax.JMP), 0x9F}, le32(4*mmu.PageSize+6)...)...)
			startKernel(m, wfCode)
			steps(m, 2)
			if !m.Halted() || m.Reason() != HaltInstruction {
				t.Fatalf("halted=%v reason=%v err=%v; want a HALT read from nonexistent memory", m.Halted(), m.Reason(), m.Err())
			}
		}, mem.Fault{Kind: mem.FaultRange, Addr: 0x900<<mmu.PageShift + 6}},
		{"sampler attached mid-run", func(t *testing.T, m *Machine) {
			// With the MMU off no page-table read interleaves, so every
			// sample is a byte peek or consume handed out: MOVL R1, R2
			// hands out 7 (the opcode, then each register specifier's
			// mode byte peeked for its length, peeked whole and consumed).
			m.prWrite(PRMAPEN, 0)
			var code []byte
			for range 4 {
				code = append(code, byte(vax.MOVL), 0x51, 0x52)
			}
			place(t, m, mfCode, code...)
			startKernel(m, mfCode)
			steps(m, 1)
			samples := 0
			m.Mem.SetInjector(func() bool { samples++; return samples == 10 })
			steps(m, 2)
			m.Mem.SetInjector(nil)
			if samples != 14 {
				t.Fatalf("%d samples for two MOVL R1, R2, want 14", samples)
			}
			// Sample 10 is the third instruction's third byte handed
			// out: its first specifier, at mfCode+7.
		}, mem.Fault{Kind: mem.FaultRDS, Addr: mfCode + 7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fast, ref := newMemoMachine(false), newMemoMachine(true)
			c.run(t, fast)
			c.run(t, ref)
			if f := requireSameMachine(t, fast, ref); f != c.fault {
				t.Fatalf("latched fault %+v, want %+v", f, c.fault)
			}
		})
	}
}

// TestWriteVirtFailureNamesFailingByte checks a store that straddles
// from a mapped page into one beyond P0LR reports the first byte that
// failed to translate, not the store's first byte.
func TestWriteVirtFailureNamesFailingByte(t *testing.T) {
	for _, ref := range []bool{false, true} {
		m := newMemoMachine(ref)
		m.writeVirt(mfP0LR*mmu.PageSize-2, 4, 0x0102_0304)
		want := fmt.Sprintf("functional write at %#x:", mfP0LR*mmu.PageSize)
		if err := m.Err(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("reference=%v: error %v, want one naming %q", ref, err, want)
		}
	}
}

// TestMMUWritersDropWindow proves the rule the frame window's register
// check rests on. peek compares the memory-management registers only at
// instruction boundaries (syncWindow), so every function in this package
// that writes m.MMU — the only code that runs inside an instruction and
// can (the probe and the fault observer are passive by contract) — must
// also drop the window.
func TestMMUWritersDropWindow(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	writers := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Walk every function body, innermost first: a write belongs to
		// the closest enclosing FuncDecl or FuncLit.
		var check func(body *ast.BlockStmt)
		check = func(body *ast.BlockStmt) {
			var writes []token.Pos
			drops := false
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					check(n.Body)
					return false
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						if reachesMMU(l) {
							writes = append(writes, l.Pos())
						}
					}
				case *ast.IncDecStmt:
					if reachesMMU(n.X) {
						writes = append(writes, n.Pos())
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND && reachesMMU(n.X) {
						writes = append(writes, n.Pos()) // a pointer that escapes could write
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					if sel.Sel.Name == "dropWindow" {
						drops = true
					}
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "mmu" {
						// Package mmu only reads the registers through
						// its pointer argument.
						for _, a := range n.Args {
							if u, ok := a.(*ast.UnaryExpr); !ok || u.Op != token.AND || !reachesMMU(u.X) {
								ast.Inspect(a, visit)
							}
						}
						return false
					}
				}
				return true
			}
			ast.Inspect(body, visit)
			writers += len(writes)
			if len(writes) > 0 && !drops {
				for _, p := range writes {
					t.Errorf("%s: writes the MMU registers in a function that does not drop the frame window", fset.Position(p))
				}
			}
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				check(fd.Body)
			}
		}
	}
	if writers == 0 {
		t.Fatal("found no write to the MMU registers; the scan is broken")
	}
}

// reachesMMU reports whether e is x.MMU or a field of it.
func reachesMMU(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name == "MMU" {
				return true
			}
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// BenchmarkPeek times one 4-byte I-stream peek served by the frame
// window, one whose run crosses a page (through loadVirt), and one on
// the per-byte reference path.
func BenchmarkPeek(b *testing.B) {
	for _, c := range []struct {
		name string
		ref  bool
		va   uint32
	}{
		{"window", false, 3*mmu.PageSize + 8},
		{"cross-page", false, 4*mmu.PageSize - 2},
		{"reference", true, 3*mmu.PageSize + 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := newMemoMachine(c.ref)
			m.ib.ptr = c.va
			for i := 0; i < b.N; i++ {
				m.ib.peek(4)
			}
		})
	}
}
