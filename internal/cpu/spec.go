package cpu

import (
	"encoding/binary"
	"math"

	"vax780/internal/vax"
)

// operand is a decoded, processed operand latch.
type operand struct {
	spec  vax.Specifier
	acc   vax.AccessType
	dt    vax.DataType
	bank  *specBank // bank whose store microwords write the result back
	isReg bool
	reg   vax.Reg
	addr  uint32 // effective address for memory operands
	val   uint64 // operand value for read/modify access
}

// size returns the operand's size in bytes.
func (o *operand) size() int { return o.dt.Size() }

// runSpecifier decodes and processes operand specifier i of the current
// instruction. First specifiers dispatch through the SPEC1 bank, all others
// through SPEC2-6; an indexed specifier always runs in the SPEC2-6 bank
// (the microcode-sharing artifact §5 of the paper describes).
func (m *Machine) runSpecifier(i int, os vax.OperandSpec) {
	bank := &uw.spec[0]
	if i > 0 {
		bank = &uw.spec[1]
	}
	op := &m.ops[i]
	*op = operand{acc: os.Access, dt: os.Type}

	// Determine the specifier's I-stream length from its mode byte, after
	// any index prefix; the decode hardware needs the bytes present, so
	// waiting here is IB stall charged to this bank's stall location. An
	// I-stream fault taken during a wait has redirected the IB to its
	// handler, whose bytes are not this specifier's: stop there.
	m.ibWait(1, bank.stall)
	if m.aborted() {
		return
	}
	prefix := 0
	b := m.ib.peek(1)
	if b[0]>>4 == 4 { // index prefix
		prefix = 1
		m.ibWait(2, bank.stall)
		if m.aborted() {
			return
		}
		b = m.ib.peek(2)
	}
	total := prefix + int(specModes[b[prefix]].size[os.Type])
	if total > ibSize {
		// An 8-byte immediate (9 I-stream bytes) cannot fit the IB at
		// once: the hardware consumes it in two dispatch cycles. An
		// index prefix on it is a reserved addressing mode, as for any
		// immediate: the decode below would refuse it.
		if prefix != 0 {
			m.deliverException(SCBReservedAddr, nil)
			return
		}
		m.wideImmediate(bank, op, os)
		return
	}
	m.ibWait(total, bank.stall)
	if m.aborted() {
		return
	}
	// Decode in one pass from the slice peeked above: read from the
	// window, it holds the whole specifier unless that runs off the
	// page. With an RDS sampler attached every byte read is a sample,
	// so the bytes are peeked and consumed again: each sample stays on
	// the byte and in the order it always had.
	sampled := m.Mem.Sampling()
	if sampled || cap(b) < total {
		b = m.ib.peek(total)
	}
	if !decodeSpec(&op.spec, b[:total]) {
		// A malformed specifier is architecturally a reserved addressing
		// mode fault, not a simulator stop.
		m.deliverException(SCBReservedAddr, nil)
		return
	}
	spec := &op.spec
	if spec.Indexed {
		bank = &uw.spec[1]
	}
	op.bank = bank

	// Consume the specifier bytes: one dispatch cycle at the mode's entry
	// location (a second for immediates wider than the 4-byte data path).
	if sampled {
		m.ib.consume(total)
	} else {
		m.ib.consumeFree(total)
	}
	m.tick(bank.dispatch[spec.Mode])
	sz := os.Type.Size()
	if spec.Mode == vax.ModeImmediate && sz > 4 {
		m.tick(bank.immExtra)
	}

	// Mode-specific operand processing.
	switch spec.Mode {
	case vax.ModeLiteral:
		op.val = expandLiteral(uint8(spec.Disp), os.Type)
		return
	case vax.ModeImmediate:
		op.val = spec.Imm
		return
	case vax.ModeRegister:
		op.isReg = true
		op.reg = spec.Base
		if os.Access == vax.AccessRead || os.Access == vax.AccessModify {
			op.val = m.regRead(spec.Base, os.Type)
		}
		return
	case vax.ModeRegDeferred:
		op.addr = m.R[spec.Base]
	case vax.ModeAutoInc:
		op.addr = m.R[spec.Base]
		m.R[spec.Base] += uint32(sz)
		m.tick(bank.calc)
	case vax.ModeAutoDec:
		m.R[spec.Base] -= uint32(sz)
		op.addr = m.R[spec.Base]
		m.tick(bank.calc)
	case vax.ModeAutoIncDef:
		ptr := m.R[spec.Base]
		m.R[spec.Base] += 4
		m.tick(bank.calc)
		op.addr = uint32(m.dread(bank.readPtr, ptr, 4))
	case vax.ModeAbsolute:
		op.addr = uint32(spec.Imm)
	case vax.ModeByteDisp, vax.ModeWordDisp, vax.ModeLongDisp:
		op.addr = m.specBase(spec.Base) + uint32(spec.Disp)
		m.tick(bank.calc)
	case vax.ModeByteDispDef, vax.ModeWordDispDef, vax.ModeLongDispDef:
		ptr := m.specBase(spec.Base) + uint32(spec.Disp)
		m.tick(bank.calc)
		op.addr = uint32(m.dread(bank.readPtr, ptr, 4))
	}
	if spec.Indexed {
		op.addr += uint32(sz) * m.R[spec.Index]
		m.tick(bank.index)
	}

	// Access-type processing for memory operands.
	switch os.Access {
	case vax.AccessRead, vax.AccessModify:
		op.val = m.dread(bank.readData, op.addr, minInt(sz, 4))
		if sz == 8 {
			op.val |= m.dread(bank.readData2, op.addr+4, 4) << 32
		}
	case vax.AccessWrite, vax.AccessAddr, vax.AccessField:
		// Address only; data is written at result-store time (write) or
		// accessed by the execute phase (addr/field).
	}
}

// wideImmediate consumes a quadword immediate specifier: mode byte, then
// two longword helpings from the IB, each with a dispatch cycle.
func (m *Machine) wideImmediate(bank *specBank, op *operand, os vax.OperandSpec) {
	op.bank = bank
	op.spec = vax.Specifier{Mode: vax.ModeImmediate}
	m.ib.consume(1) // the (PC)+ mode byte
	m.tick(bank.dispatch[vax.ModeImmediate])
	// Fold each longword into the value before the next IB interaction:
	// takeExtra hands out the IB's scratch buffer, so the second helping
	// overwrites the first.
	lo := m.takeExtra(bank.stall, 4)
	if m.aborted() {
		return
	}
	var v uint64
	for i := 0; i < 4; i++ {
		v |= uint64(lo[i]) << (8 * i)
	}
	m.tick(bank.immExtra)
	hi := m.takeExtra(bank.stall, 4)
	if m.aborted() {
		return
	}
	for i := 0; i < 4; i++ {
		v |= uint64(hi[i]) << (32 + 8*i)
	}
	op.val = v
	op.spec.Imm = v
}

// specBase returns the value of a specifier base register; PC reads as the
// address of the byte following the specifier (the IB pointer, since the
// specifier bytes have been consumed).
func (m *Machine) specBase(r vax.Reg) uint32 {
	if r == vax.PC {
		return m.ib.cur()
	}
	return m.R[r]
}

// specMode is the decode of one mode byte: a row of specModes.
type specMode struct {
	mode vax.AddrMode
	// size is the specifier's I-stream length from the mode byte on, by
	// operand data type (an index prefix comes on top); only an
	// immediate's depends on the type.
	size [vax.TypeFloatD + 1]uint8
	// indexable marks a byte that may follow an index prefix: a memory
	// mode. Mode 4, a second prefix, is not one.
	indexable bool
}

// specModes is the specifier decode table, indexed by mode byte. It is
// checked against vax.DecodeSpecifier, the reference decoder, for every
// byte pair and data type.
var specModes = func() (t [256]specMode) {
	regModes := [16]vax.AddrMode{5: vax.ModeRegister, 6: vax.ModeRegDeferred,
		7: vax.ModeAutoDec, 8: vax.ModeAutoInc, 9: vax.ModeAutoIncDef,
		0xA: vax.ModeByteDisp, 0xB: vax.ModeByteDispDef, 0xC: vax.ModeWordDisp,
		0xD: vax.ModeWordDispDef, 0xE: vax.ModeLongDisp, 0xF: vax.ModeLongDispDef}
	dispBytes := [16]int{0xA: 1, 0xB: 1, 0xC: 2, 0xD: 2, 0xE: 4, 0xF: 4}
	for b := range t {
		mode, reg := b>>4, vax.Reg(b&0x0F)
		e := &t[b]
		extra := 0 // bytes after the mode byte
		switch {
		case mode <= 3:
			e.mode = vax.ModeLiteral
		case mode == 4:
			// An index prefix where a mode byte belongs: one byte, and
			// not indexable.
		case mode == 8 && reg == vax.PC:
			e.mode = vax.ModeImmediate
		case mode == 9 && reg == vax.PC:
			e.mode, extra = vax.ModeAbsolute, 4
		default:
			e.mode, extra = regModes[mode], dispBytes[mode]
		}
		e.indexable = e.mode.Indexable()
		for dt := range e.size {
			n := extra
			if e.mode == vax.ModeImmediate {
				n = vax.DataType(dt).Size()
			}
			e.size[dt] = uint8(1 + n)
		}
	}
	return t
}()

// decodeSpec decodes the specifier that fills b, whose length was taken
// from specModes, into the zero specifier *s. It returns false for a
// reserved addressing mode: a second index prefix, PC as the index
// register, or an index on a mode that references no memory.
func decodeSpec(s *vax.Specifier, b []byte) bool {
	ok := true
	if b[0]>>4 == 4 {
		s.Indexed, s.Index = true, vax.Reg(b[0]&0x0F)
		b = b[1:]
		ok = s.Index != vax.PC && specModes[b[0]].indexable
	}
	mb, x := b[0], b[1:]
	s.Mode = specModes[mb].mode
	switch s.Mode {
	case vax.ModeLiteral:
		s.Disp = int32(mb)
		return ok
	case vax.ModeImmediate, vax.ModeAbsolute:
		for i, c := range x {
			s.Imm |= uint64(c) << (8 * i)
		}
		return ok
	}
	s.Base = vax.Reg(mb & 0x0F)
	switch len(x) {
	case 1:
		s.Disp = int32(int8(x[0]))
	case 2:
		s.Disp = int32(int16(binary.LittleEndian.Uint16(x)))
	case 4:
		s.Disp = int32(binary.LittleEndian.Uint32(x))
	}
	return ok
}

// storeResult writes val back to operand i (a write- or modify-access
// destination). Register stores are the folded specifier/execute cycle the
// paper reports in the SPEC rows; memory stores are specifier-row writes.
func (m *Machine) storeResult(i int, val uint64) {
	op := &m.ops[i]
	sz := op.size()
	if op.isReg {
		m.tick(op.bank.storeReg)
		m.regWrite(op.reg, val, op.dt)
		return
	}
	m.dwrite(op.bank.writeData, op.addr, minInt(sz, 4), val)
	if sz == 8 {
		m.dwrite(op.bank.writeData2, op.addr+4, 4, val>>32)
	}
}

// regRead reads a register operand (quad operands pair Rn with Rn+1).
func (m *Machine) regRead(r vax.Reg, t vax.DataType) uint64 {
	switch t.Size() {
	case 8:
		return uint64(m.R[r]) | uint64(m.R[(r+1)&0xF])<<32
	default:
		return uint64(m.R[r]) & sizeMask(t.Size())
	}
}

// regWrite writes a register operand, preserving high-order bytes for
// sub-longword writes (VAX semantics).
func (m *Machine) regWrite(r vax.Reg, v uint64, t vax.DataType) {
	switch t.Size() {
	case 8:
		m.R[r] = uint32(v)
		m.R[(r+1)&0xF] = uint32(v >> 32)
	case 4:
		m.R[r] = uint32(v)
	case 2:
		m.R[r] = m.R[r]&0xFFFF0000 | uint32(v)&0xFFFF
	case 1:
		m.R[r] = m.R[r]&0xFFFFFF00 | uint32(v)&0xFF
	}
}

// opVal returns operand i's value (already fetched for read/modify access).
func (m *Machine) opVal(i int) uint64 { return m.ops[i].val }

// opAddr returns operand i's effective address.
func (m *Machine) opAddr(i int) uint32 { return m.ops[i].addr }

// expandLiteral expands a 6-bit short literal per the operand data type:
// integers zero-extend; floating literals encode (1 + f/8)·2^(e-1) with
// e = bits 5:3 and f = bits 2:0, spanning 0.5 .. 120.0.
func expandLiteral(lit uint8, t vax.DataType) uint64 {
	switch t {
	case vax.TypeFloatF:
		return uint64(math.Float32bits(float32(literalFloat(lit))))
	case vax.TypeFloatD:
		return math.Float64bits(literalFloat(lit))
	default:
		return uint64(lit)
	}
}

func literalFloat(lit uint8) float64 {
	e := int(lit>>3) & 7
	f := float64(lit & 7)
	return (1 + f/8) * math.Pow(2, float64(e-1))
}

func sizeMask(sz int) uint64 {
	if sz >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*uint(sz)) - 1
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
