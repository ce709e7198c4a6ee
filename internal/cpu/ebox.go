package cpu

import (
	"encoding/binary"

	"vax780/internal/cache"
	"vax780/internal/mmu"
	"vax780/internal/tb"
)

// ---------------------------------------------------------------------------
// Functional (untimed) virtual memory access. The timing model books cache
// and bus activity separately; data always comes from the memory array,
// which write-through keeps current. Every functional translation goes
// through vtop, once per run of bytes within one 512-byte page, and a
// run is copied straight out of its physical frame (mem.Frame). The
// I-box goes one step further: it keeps the frame under PC as a window
// and decodes from it in place while the window stays exact (ibox.peek).
// Either way each byte handed out is one RDS sample (mem.Sampled), as a
// read through Memory.Byte would be.

// memoSize is the number of direct-mapped entries in the functional
// translation memo.
const memoSize = 64

// memoValid tags a filled memo entry (a VPN with its region bits is at
// most 23 bits wide).
const memoValid = uint32(1) << 31

// xlateMemo is the functional path's VPN→page-frame memo. It is not the
// simulated TB: the TB neither fills nor consults it, so the TB fault
// plane and the no-flush ablation cannot corrupt data, and it costs no
// simulated cycles. Its entries are exact copies of mmu.Walk results and
// stay valid only while (1) the memory-management registers equal regs —
// which covers MTPR to any base/length register, MAPEN, LDPCTX, a boot
// that installs new registers and a state import — and (2) the memory's
// write generation equals gen; every walk watches the frames it read PTEs
// from, so a store into a page table, a Load or a state import empties
// the memo.
type xlateMemo struct {
	regs mmu.Registers
	gen  uint64
	ent  [memoSize]struct{ tag, base uint32 }
}

// vtop translates va for the functional path.
func (m *Machine) vtop(va uint32) (uint32, error) {
	if !m.MMU.Enabled {
		return va, nil
	}
	if m.refXlate {
		return mmu.Translate(va, &m.MMU, m.Mem)
	}
	fm := &m.fm
	if fm.gen != m.Mem.Gen() || fm.regs != m.MMU {
		*fm = xlateMemo{regs: m.MMU, gen: m.Mem.Gen()}
	}
	tag := va>>mmu.PageShift | memoValid
	e := &fm.ent[va>>mmu.PageShift%memoSize]
	if e.tag == tag {
		return e.base | va&mmu.PageMask, nil
	}
	var reads mmu.PTEReads
	pa, err := mmu.Walk(va, &m.MMU, m.Mem, &reads)
	if err != nil {
		return 0, err
	}
	for _, a := range reads.Addr[:reads.N] {
		m.Mem.Watch(a)
	}
	e.tag, e.base = tag, pa&^mmu.PageMask
	return pa, nil
}

// pageRun returns how many of the n bytes starting at va one translation
// covers: those left in va's page, or one on the per-byte reference path.
func (m *Machine) pageRun(va uint32, n int) int {
	if m.refXlate {
		return 1
	}
	return min(n, mmu.PageSize-int(va&mmu.PageMask))
}

// loadVirt fills dst with the bytes at va. A page that fails to translate
// stops the machine and reads as zeros.
func (m *Machine) loadVirt(va uint32, dst []byte) {
	for i := 0; i < len(dst); {
		a := va + uint32(i)
		n := m.pageRun(a, len(dst)-i)
		pa, err := m.vtop(a)
		if err != nil {
			m.fail("functional read at %#x: %v", a, err)
			clear(dst[i : i+n])
			i += n
			continue
		}
		if f := m.Mem.Frame(pa); f != nil {
			copy(dst[i:i+n], f[pa&mmu.PageMask:])
			m.Mem.Sampled(pa, n)
			i += n
			continue
		}
		for end := i + n; i < end; i++ {
			dst[i] = m.Mem.Byte(pa)
			pa++
		}
	}
}

// readVirt returns the size bytes (at most 8) at va, little-endian.
func (m *Machine) readVirt(va uint32, size int) uint64 {
	var b [8]byte
	m.loadVirt(va, b[:size])
	return binary.LittleEndian.Uint64(b[:])
}

// writeVirt stores the low size bytes of v at va. A run whose frame holds
// no page table goes straight into the frame (mem.Frame). Otherwise a
// byte that lands in a page table may remap the bytes after it, so a
// store that advances the memory's write generation ends the run and the
// next byte translates again — the same result as translating every byte.
func (m *Machine) writeVirt(va uint32, size int, v uint64) {
	for i := 0; i < size; {
		a := va + uint32(i)
		n := m.pageRun(a, size-i)
		pa, err := m.vtop(a)
		if err != nil {
			m.fail("functional write at %#x: %v", a, err)
			return
		}
		if f := m.Mem.Frame(pa); f != nil && !m.Mem.Watched(pa) {
			// No page table lives in the frame, so no byte of the run
			// can remap the rest: store the run straight into it.
			for end := i + n; i < end; i++ {
				f[pa&mmu.PageMask] = byte(v >> (8 * i))
				pa++
			}
			continue
		}
		gen := m.Mem.Gen()
		for end := i + n; i < end; {
			m.Mem.SetByte(pa, byte(v>>(8*i)))
			pa++
			i++
			if m.Mem.Gen() != gen {
				break
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Timed data-stream access. Each call accounts the cycles of exactly one
// read- or write-class microinstruction (plus any stall), and services TB
// misses through the microcode trap routine first.

// aborted reports whether the current instruction can make no further
// progress: the machine stopped, or an exception redirected control.
func (m *Machine) aborted() bool {
	return m.halted || m.runErr != nil || m.instAborted
}

// xlate translates a D-stream virtual address through the TB, running the
// TB-miss microtrap when needed. The loop is bounded but more than one
// round: an injected TB parity error can invalidate the very entry the
// miss routine just inserted, which on the real machine simply means the
// microtrap fires again.
func (m *Machine) xlate(va uint32) uint32 {
	if !m.MMU.Enabled {
		return va
	}
	const maxTries = 4
	for try := 0; try < maxTries; try++ {
		if pa, hit := m.TLB.Lookup(va, tb.DStream); hit {
			return pa
		}
		m.tbMissService(va, tb.DStream)
		if m.aborted() {
			return 0
		}
	}
	m.fail("TB fill did not take at %#x after %d tries", va, maxTries)
	return 0
}

// dread performs a D-stream read of size bytes (1..4) at the read-class
// microword w. Unaligned references crossing a longword boundary make two
// physical references and run the alignment microcode (counted under
// Mem Mgmt, as in Table 8).
func (m *Machine) dread(w uint16, va uint32, size int) uint64 {
	m.ib.advance(m.cycle)
	crosses := int(va&3)+size > 4
	if crosses {
		m.unalignedOverhead()
	}
	pa := m.xlate(va)
	if m.aborted() {
		return 0
	}
	m.cacheReadRef(w, pa)
	if crosses {
		pa2 := m.xlate((va &^ 3) + 4)
		if m.aborted() {
			return 0
		}
		m.cacheReadRef(w, pa2)
	}
	return m.readVirt(va, size)
}

// cacheReadRef accounts one longword read reference at microword w.
func (m *Machine) cacheReadRef(w uint16, pa uint32) {
	if !m.Cache.Read(pa&^3, cache.DStream) {
		done := m.SBI.Read(m.cycle)
		if done > m.cycle {
			m.stall(w, done-m.cycle)
		}
	}
	m.tick(w)
}

// dwrite performs a D-stream write at the write-class microword w. The
// EBOX spends one cycle initiating the write and stalls only if the write
// buffer still holds the previous write (§2.1).
func (m *Machine) dwrite(w uint16, va uint32, size int, val uint64) {
	m.ib.advance(m.cycle)
	crosses := int(va&3)+size > 4
	if crosses {
		m.unalignedOverhead()
	}
	pa := m.xlate(va)
	if m.aborted() {
		return
	}
	m.cacheWriteRef(w, pa)
	if crosses {
		pa2 := m.xlate((va &^ 3) + 4)
		if m.aborted() {
			return
		}
		m.cacheWriteRef(w, pa2)
	}
	m.writeVirt(va, size, val)
}

func (m *Machine) cacheWriteRef(w uint16, pa uint32) {
	if st := m.WB.Write(m.cycle); st > 0 {
		m.stall(w, st)
	}
	m.Cache.Write(pa &^ 3)
	m.tick(w)
}

// readPhys performs a timed physical read (used by the TB-miss routine for
// page-table entries; its stall cycles are the Mem Mgmt read stalls the
// paper highlights).
func (m *Machine) readPhys(w uint16, pa uint32) uint32 {
	if !m.Cache.Read(pa&^3, cache.DStream) {
		done := m.SBI.Read(m.cycle)
		if done > m.cycle {
			m.stall(w, done-m.cycle)
		}
	}
	m.tick(w)
	return m.Mem.ReadLong(pa)
}

// unalignedOverhead runs the alignment microcode (Mem Mgmt row).
func (m *Machine) unalignedOverhead() {
	m.tick(uw.mmAlignEntry)
	m.tick(uw.mmAlignWork)
	m.unaligned++
}

// ---------------------------------------------------------------------------
// TB miss service: a microcode trap. One Abort cycle (the trap itself),
// then the miss routine walks the page table with real timed reads and
// inserts the translation. Average cost lands near the paper's 21.6 cycles
// (§4.2), with the PTE read contributing read-stall inside Mem Mgmt.

func (m *Machine) tbMissService(va uint32, st tb.Stream) {
	m.tick(uw.abort) // microtrap: one abort cycle
	entry := uw.mmTBMissEntryD
	if st == tb.IStream {
		entry = uw.mmTBMissEntryI
	}
	m.tick(entry)
	// Set-up and probe microcode before touching the page table.
	m.ticks(uw.mmTBMissWork, 6)
	ref, err := m.MMU.PTEAddr(va)
	if err != nil {
		m.memMgmtFault(va, err)
		return
	}
	pteAddr := ref.Addr
	if !ref.IsPhys {
		// The process PTE lives in system space: translate its address,
		// possibly through the TB, possibly via a nested system-table walk.
		m.ticks(uw.mmTBMissWork, 2)
		if pa, hit := m.TLB.Lookup(pteAddr, st); hit {
			pteAddr = pa
		} else {
			sysRef, err := m.MMU.PTEAddr(pteAddr)
			if err != nil {
				m.memMgmtFault(va, err)
				return
			}
			m.ticks(uw.mmTBMissWork, 3)
			sysPTE := m.readPhys(uw.mmTBMissRead, sysRef.Addr)
			if !mmu.Valid(sysPTE) {
				m.pageFault(pteAddr)
				return
			}
			m.TLB.Insert(pteAddr, mmu.PFN(sysPTE))
			pteAddr = mmu.PFN(sysPTE)<<mmu.PageShift | pteAddr&mmu.PageMask
		}
	}
	pte := m.readPhys(uw.mmTBMissRead, pteAddr)
	m.ticks(uw.mmTBMissWork, 8)
	if !mmu.Valid(pte) {
		m.pageFault(va)
		return
	}
	m.TLB.Insert(va, mmu.PFN(pte))
	m.tick(uw.mmTBMissDone)
	if m.ib.tbMissPending && m.ib.tbMissVA == va {
		m.ib.tbMissPending = false
	}
}

// ---------------------------------------------------------------------------
// Instruction-buffer interaction: each take is a dispatch microinstruction
// that needs n bytes; waiting for bytes burns cycles at the dedicated
// IB-stall location stallW.

// ibWait blocks until the IB holds n bytes, servicing I-stream TB misses.
// When the fill state has already been advanced to the current cycle and
// holds the bytes, there is nothing to simulate: the common case returns
// without a call.
func (m *Machine) ibWait(n int, stallW uint16) {
	if m.ib.valid >= n && m.ib.advanced >= m.cycle {
		return
	}
	m.ibFill(n, stallW)
}

// ibFill is ibWait's loop: advance the fill state, then stall or service
// a TB miss until n bytes are buffered.
func (m *Machine) ibFill(n int, stallW uint16) {
	const guard = 1 << 20
	for i := 0; ; i++ {
		if m.halted || m.runErr != nil {
			return
		}
		m.ib.advance(m.cycle)
		if m.ib.valid >= n {
			return
		}
		if m.ib.tbMissPending {
			m.tbMissService(m.ib.tbMissVA, tb.IStream)
			continue
		}
		m.ibStallTick(stallW)
		if i > guard {
			m.fail("IB wait for %d bytes did not complete at pc %#x", n, m.ib.ptr)
			return
		}
	}
}

// takeExtra consumes n further bytes that arrive with the same dispatch
// (no additional cycle, but the wait can still IB-stall). The result is
// valid only until the next IB interaction or memory write (see
// ibox.peek). After an abort during the wait the IB holds the handler's
// bytes, so the take hands back zeros and consumes nothing.
func (m *Machine) takeExtra(stallW uint16, n int) []byte {
	m.ibWait(n, stallW)
	if m.aborted() {
		return m.ib.zeroed(n)
	}
	return m.ib.consume(n)
}
