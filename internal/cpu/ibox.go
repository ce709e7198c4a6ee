package cpu

import (
	"vax780/internal/cache"
	"vax780/internal/mmu"
	"vax780/internal/tb"
)

// IBStats are hardware counters of the I-Fetch unit. They are NOT visible
// to the µPC monitor (the paper's §2.2 limitation: I-stream references are
// made by a distinct portion of the processor); they stand in for the
// authors' "earlier cache study" numbers used in §4.1.
type IBStats struct {
	CacheRefs      uint64 // longword cache references made by the IB
	BytesDelivered uint64 // bytes accepted into the IB
	BytesConsumed  uint64 // I-stream bytes decoded (measures instruction size)
	Redirects      uint64 // IB flushes caused by PC-changing instructions
	TBMisses       uint64 // I-stream translation misses detected by I-Fetch
}

// ibox models the I-Fetch stage and the 8-byte instruction buffer. It
// fills autonomously while the EBOX computes: the fill state is advanced
// lazily to the EBOX's current cycle before any interaction.
type ibox struct {
	m *Machine

	ptr   uint32 // VA of the next byte to deliver to I-Decode
	valid int    // valid bytes buffered ahead of ptr (0..8)

	fillPending bool
	fillDone    uint64 // cycle the outstanding longword arrives
	fillBytes   int    // bytes it will deliver

	tbMissPending bool
	tbMissVA      uint32

	advanced uint64 // cycle up to which fill activity is simulated

	stats IBStats

	// scratch backs peek/consume when the bytes do not come from the
	// frame window. The decode hardware reads the IB combinationally, so
	// the bytes handed out are valid only until the next
	// peek/consume/zeroed call or memory write; callers fold them into
	// values before touching the IB again (wideImmediate is the
	// two-helping case). Reusing one array keeps the per-cycle decode
	// path allocation-free.
	scratch [ibSize]byte

	// The frame window: win is the live physical frame under the page
	// winTag names (VPN | memoValid; 0 = no window), winPA the physical
	// address of win[0]. It was taken through vtop and stays exact on
	// the translation memo's two rules: the memory-management registers
	// still equal winRegs and the memory's write generation still equals
	// winGen. peek compares the generation; the registers are compared
	// once per instruction (syncWindow), and every write to them inside
	// an instruction drops the window (dropWindow). Because win aliases
	// the array, a store into the code page shows through it with no
	// invalidation.
	win     []byte
	winTag  uint32
	winPA   uint32
	winGen  uint64
	winRegs mmu.Registers
}

const ibSize = 8

// cur returns the VA of the next undecoded byte (the architectural PC).
func (ib *ibox) cur() uint32 { return ib.ptr }

// redirect flushes the IB and restarts fetch at va (branch taken, REI,
// context switch). An in-flight memory transaction is abandoned but its
// bus occupancy remains — as on the real machine.
func (ib *ibox) redirect(va uint32) {
	ib.ptr = va
	ib.valid = 0
	ib.fillPending = false
	ib.tbMissPending = false
	ib.stats.Redirects++
	// Fetch down the new stream starts now, not at the (possibly earlier)
	// cycle the lazy fill simulation had reached.
	if ib.m.cycle > ib.advanced {
		ib.advanced = ib.m.cycle
	}
}

// advance simulates I-Fetch activity up to cycle `to`.
func (ib *ibox) advance(to uint64) {
	if ib.advanced >= to {
		return
	}
	now := ib.advanced
	for now < to {
		if ib.fillPending {
			if ib.fillDone > to {
				break
			}
			now = ib.fillDone
			ib.fillPending = false
			room := ibSize - ib.valid
			n := ib.fillBytes
			if n > room {
				n = room
			}
			ib.valid += n
			ib.stats.BytesDelivered += uint64(n)
			continue
		}
		if ib.valid >= ibSize || ib.tbMissPending {
			break
		}
		// Issue the next longword reference for the first empty byte.
		// The IB can re-reference the same longword (up to four times,
		// §4.1) when only part of it fit; it waits for two bytes of room
		// before requesting, bounding the waste.
		fillVA := ib.ptr + uint32(ib.valid)
		if ibSize-ib.valid < 2 {
			break
		}
		pa, ok := ib.translate(fillVA)
		if !ok {
			// Set the miss flag; the EBOX notices it when it next finds
			// insufficient bytes in the IB (§2.1).
			ib.tbMissPending = true
			ib.tbMissVA = fillVA
			break
		}
		ib.stats.CacheRefs++
		bytesInLong := 4 - int(fillVA&3)
		if ib.m.Cache.Read(pa&^3, cache.IStream) {
			ib.fillPending = true
			ib.fillDone = now + 1
			ib.fillBytes = bytesInLong
		} else {
			ib.fillPending = true
			ib.fillDone = ib.m.SBI.Read(now)
			ib.fillBytes = bytesInLong
		}
	}
	if ib.advanced < to {
		ib.advanced = to
	}
	if now > ib.advanced {
		ib.advanced = now
	}
}

// translate performs the I-Fetch unit's hardware TB lookup.
func (ib *ibox) translate(va uint32) (uint32, bool) {
	if !ib.m.MMU.Enabled {
		return va, true
	}
	pa, hit := ib.m.TLB.Lookup(va, tb.IStream)
	if !hit {
		ib.stats.TBMisses++
		return 0, false
	}
	return pa, true
}

// peek returns n bytes of I-stream starting at ptr without consuming them
// and without advancing time (the decode hardware sees the IB contents
// combinationally). The caller must have ensured valid >= n. Bytes that
// lie in the frame window's page come straight out of the frame; the
// rest are copied into the scratch buffer by loadVirt. Either way each
// byte handed out is one RDS sample, as a memory read, and the result is
// invalidated by the next peek, consume or memory write. A result taken
// from the window keeps the rest of the page as its capacity: while the
// memory's write generation and the memory-management registers stay
// put, reslicing it to more bytes reads what a longer peek would,
// without the samples.
func (ib *ibox) peek(n int) []byte {
	off := int(ib.ptr & mmu.PageMask)
	if ib.ptr>>mmu.PageShift|memoValid == ib.winTag && off+n <= mmu.PageSize &&
		ib.winGen == ib.m.Mem.Gen() {
		ib.m.Mem.Sampled(ib.winPA+uint32(off), n)
		return ib.win[off : off+n]
	}
	return ib.peekMiss(n)
}

// peekMiss serves a peek the window cannot: it takes a new window when
// the n bytes lie in one page whose frame is inside memory, and otherwise
// reads through loadVirt (a run across a page, a frame past the end of
// memory, the per-byte reference path, or a failing translation, which
// loadVirt walks again and stops the machine on). A window it does not
// replace stays exact for its own page.
func (ib *ibox) peekMiss(n int) []byte {
	m := ib.m
	off := int(ib.ptr & mmu.PageMask)
	if !m.refXlate && off+n <= mmu.PageSize {
		if pa, err := m.vtop(ib.ptr); err == nil {
			if f := m.Mem.Frame(pa); f != nil {
				ib.win, ib.winPA = f, pa-uint32(off)
				ib.winTag = ib.ptr>>mmu.PageShift | memoValid
				ib.winGen, ib.winRegs = m.Mem.Gen(), m.MMU
				m.Mem.Sampled(pa, n)
				return f[off : off+n]
			}
		}
	}
	out := ib.scratch[:n:n]
	m.loadVirt(ib.ptr, out)
	return out
}

// syncWindow drops the frame window if the memory-management registers
// changed since it was taken. StepInstruction calls it at every
// instruction boundary, which covers every writer outside this package
// (boot, the OS hook, tests); inside an instruction the writers drop the
// window themselves.
func (ib *ibox) syncWindow() {
	if ib.winRegs != ib.m.MMU {
		ib.dropWindow()
	}
}

// dropWindow forgets the frame window; the next peek takes a new one.
func (ib *ibox) dropWindow() { ib.winTag = 0 }

// zeroed returns n zero bytes from the scratch buffer: what an aborted
// take hands back so partial readers see deterministic zeros, without
// allocating on the failure path.
func (ib *ibox) zeroed(n int) []byte {
	out := ib.scratch[:n]
	for i := range out {
		out[i] = 0
	}
	return out
}

// consume removes n bytes from the front of the IB and returns them.
func (ib *ibox) consume(n int) []byte {
	b := ib.peek(n)
	ib.ptr += uint32(n)
	ib.valid -= n
	ib.stats.BytesConsumed += uint64(n)
	return b[:n:n]
}

// consumeFree advances the IB pointer past n bytes without reading them
// or requiring them to be buffered: the displacement bytes of untaken
// branches, which the hardware skips without a dedicated cycle, and
// specifier bytes the decode has already read.
func (ib *ibox) consumeFree(n int) {
	ib.ptr += uint32(n)
	ib.valid -= n
	ib.stats.BytesConsumed += uint64(n)
	if ib.valid < 0 {
		ib.valid = 0
		ib.fillPending = false
	}
}

// Stats returns the I-Fetch hardware counters.
func (m *Machine) IBStats() IBStats { return m.ib.stats }
