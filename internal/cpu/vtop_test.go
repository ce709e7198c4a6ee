package cpu

import (
	"bytes"
	"testing"

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
