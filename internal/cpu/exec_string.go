package cpu

// Execute-phase microroutines for the CHARACTER group. The move loops work
// a longword at a time; the real microcode was "explicitly written to avoid
// write stalls by writing only in every sixth cycle" (§4.3, §5), modelled
// here by compute padding around each write (removable via the
// NoCharWriteSpacing ablation).

import "vax780/internal/vax"

// charSpacing pads the string-move loop so writes land ≥6 cycles apart.
func (m *Machine) charSpacing(n int) {
	if m.cfg.NoCharWriteSpacing {
		return
	}
	m.ticks(uw.chWork, n)
}

// movcSetup burns the common string-instruction setup microcycles.
func (m *Machine) movcSetup() {
	m.tick(uw.chEntry)
	m.ticks(uw.chSetup, 7)
}

// movcLoop copies length bytes from src to dst a longword at a time with
// real timed reads and writes, then handles the byte tail.
func (m *Machine) movcLoop(length int, src, dst uint32) {
	for length >= 4 {
		v := m.dread(uw.chRead, src, 4)
		m.ticks(uw.chWork, 3)
		m.dwrite(uw.chWrite, dst, 4, v)
		m.charSpacing(4)
		src += 4
		dst += 4
		length -= 4
	}
	for length > 0 {
		v := m.dread(uw.chRead, src, 1)
		m.ticks(uw.chByte, 2)
		m.dwrite(uw.chWrite, dst, 1, v)
		m.charSpacing(4)
		src++
		dst++
		length--
	}
}

func init() {
	// MOVC3 len.rw, src.ab, dst.ab
	register(vax.MOVC3, func(m *Machine) {
		m.movcSetup()
		length := int(uint16(m.opVal(0)))
		src, dst := m.opAddr(1), m.opAddr(2)
		m.movcLoop(length, src, dst)
		m.tick(uw.chDone)
		m.R[0], m.R[2], m.R[4] = 0, 0, 0
		m.R[1] = src + uint32(length)
		m.R[3] = dst + uint32(length)
		m.R[5] = dst + uint32(length)
		m.setCC(false, true, false, false)
	})

	// MOVC5 srclen.rw, src.ab, fill.rb, dstlen.rw, dst.ab
	register(vax.MOVC5, func(m *Machine) {
		m.movcSetup()
		m.ticks(uw.chSetup, 2)
		srclen := int(uint16(m.opVal(0)))
		dstlen := int(uint16(m.opVal(3)))
		src, dst := m.opAddr(1), m.opAddr(4)
		fill := byte(m.opVal(2))
		n := srclen
		if n > dstlen {
			n = dstlen
		}
		m.movcLoop(n, src, dst)
		// Fill the remainder (no source reads).
		for i := n; i < dstlen; i += 4 {
			w := dstlen - i
			if w > 4 {
				w = 4
			}
			fv := uint64(fill) | uint64(fill)<<8 | uint64(fill)<<16 | uint64(fill)<<24
			m.tick(uw.chWork)
			m.dwrite(uw.chWrite, dst+uint32(i), w, fv)
			m.charSpacing(3)
		}
		m.tick(uw.chDone)
		m.R[0] = uint32(srclen - n)
		m.R[1] = src + uint32(n)
		m.R[2], m.R[4] = 0, 0
		m.R[3] = dst + uint32(dstlen)
		m.R[5] = dst + uint32(dstlen)
		m.ccCmp(uint64(srclen), uint64(dstlen), 4)
	})

	// CMPC3 len.rw, src1.ab, src2.ab
	register(vax.CMPC3, func(m *Machine) {
		m.movcSetup()
		length := int(uint16(m.opVal(0)))
		a, b := m.opAddr(1), m.opAddr(2)
		i := 0
		for ; i+4 <= length; i += 4 {
			va := m.dread(uw.chRead, a+uint32(i), 4)
			vb := m.dread(uw.chRead, b+uint32(i), 4)
			m.ticks(uw.chWork, 3)
			if va != vb {
				break
			}
		}
		// Byte-resolve the mismatch (or the tail).
		var ba, bb uint64
		for ; i < length; i++ {
			ba = m.dread(uw.chRead, a+uint32(i), 1)
			bb = m.dread(uw.chRead, b+uint32(i), 1)
			m.tick(uw.chByte)
			if ba != bb {
				break
			}
		}
		m.tick(uw.chDone)
		m.R[0] = uint32(length - i)
		m.R[1] = a + uint32(i)
		m.R[2] = uint32(length - i)
		m.R[3] = b + uint32(i)
		m.ccCmp(ba, bb, 1)
	})

	// CMPC5 shares the CMPC3 microcode shape with fill handling.
	register(vax.CMPC5, func(m *Machine) {
		m.movcSetup()
		m.ticks(uw.chSetup, 2)
		len1 := int(uint16(m.opVal(0)))
		len2 := int(uint16(m.opVal(3)))
		a, b := m.opAddr(1), m.opAddr(4)
		fill := uint64(byte(m.opVal(2)))
		n := len1
		if len2 > n {
			n = len2
		}
		var ba, bb uint64
		i := 0
		for ; i < n; i++ {
			if i < len1 {
				ba = m.dread(uw.chRead, a+uint32(i), 1)
			} else {
				ba = fill
			}
			if i < len2 {
				bb = m.dread(uw.chRead, b+uint32(i), 1)
			} else {
				bb = fill
			}
			m.tick(uw.chByte)
			if ba != bb {
				break
			}
		}
		m.tick(uw.chDone)
		m.ccCmp(ba, bb, 1)
	})

	// MOVTC srclen.rw, src.ab, fill.rb, table.ab, dstlen.rw, dst.ab:
	// translate characters through a 256-byte table while moving.
	register(vax.MOVTC, func(m *Machine) {
		m.movcSetup()
		m.ticks(uw.chSetup, 2)
		srclen := int(uint16(m.opVal(0)))
		src := m.opAddr(1)
		fill := byte(m.opVal(2))
		table := m.opAddr(3)
		dstlen := int(uint16(m.opVal(4)))
		dst := m.opAddr(5)
		n := srclen
		if n > dstlen {
			n = dstlen
		}
		for i := 0; i < n; i++ {
			ch := m.dread(uw.chRead, src+uint32(i), 1)
			tr := m.dread(uw.chRead, table+uint32(byte(ch)), 1)
			m.tick(uw.chByte)
			m.dwrite(uw.chWrite, dst+uint32(i), 1, tr)
			m.charSpacing(3)
		}
		for i := n; i < dstlen; i++ {
			m.tick(uw.chByte)
			m.dwrite(uw.chWrite, dst+uint32(i), 1, uint64(fill))
			m.charSpacing(3)
		}
		m.tick(uw.chDone)
		m.R[0] = uint32(srclen - n)
		m.R[1] = src + uint32(n)
		m.R[2], m.R[4] = 0, 0
		m.R[3] = table
		m.R[5] = dst + uint32(dstlen)
		m.ccCmp(uint64(srclen), uint64(dstlen), 4)
	})

	// LOCC char.rb, len.rw, addr.ab — find a byte.
	register(vax.LOCC, loccLike(true))
	// SKPC — skip a byte.
	register(vax.SKPC, loccLike(false))

	// SCANC len.rw, addr.ab, tbladdr.ab, mask.rb — scan with table.
	register(vax.SCANC, scanLike(true))
	// SPANC — span with table.
	register(vax.SPANC, scanLike(false))
}

// loccLike scans length bytes for (or past) a target byte: a longword read
// feeds four byte-compare microcycles.
func loccLike(match bool) execFn {
	return func(m *Machine) {
		m.movcSetup()
		target := byte(m.opVal(0))
		length := int(uint16(m.opVal(1)))
		addr := m.opAddr(2)
		i := 0
		found := false
	scan:
		for i < length {
			span := minInt(4-int((addr+uint32(i))&3), length-i)
			v := m.dread(uw.chRead, addr+uint32(i), span)
			for j := 0; j < span; j++ {
				m.ticks(uw.chByte, 2)
				if (byte(v>>(8*j)) == target) == match {
					found = true
					break scan
				}
				i++
			}
		}
		m.tick(uw.chDone)
		m.R[0] = uint32(length - i)
		m.R[1] = addr + uint32(i)
		m.setCC(false, !found, false, false)
	}
}

// scanLike implements SCANC/SPANC: each string byte indexes a translation
// table; the table byte is ANDed with the mask.
func scanLike(stopOnHit bool) execFn {
	return func(m *Machine) {
		m.movcSetup()
		m.ticks(uw.chSetup, 2)
		length := int(uint16(m.opVal(0)))
		addr := m.opAddr(1)
		table := m.opAddr(2)
		mask := byte(m.opVal(3))
		i := 0
		found := false
	scan:
		for i < length {
			span := minInt(4-int((addr+uint32(i))&3), length-i)
			v := m.dread(uw.chRead, addr+uint32(i), span)
			for j := 0; j < span; j++ {
				t := byte(m.dread(uw.chRead, table+uint32(byte(v>>(8*j))), 1))
				m.tick(uw.chByte)
				if (t&mask != 0) == stopOnHit {
					found = true
					break scan
				}
				i++
			}
		}
		m.tick(uw.chDone)
		m.R[0] = uint32(length - i)
		m.R[1] = addr + uint32(i)
		m.R[2] = 0
		m.R[3] = table
		m.setCC(false, !found, false, false)
	}
}
