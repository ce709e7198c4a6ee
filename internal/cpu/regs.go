package cpu

// Architectural internal-processor-register numbers (the MTPR/MFPR
// namespace), following the VAX Architecture Reference Manual.
const (
	PRKSP   = 0  // kernel stack pointer
	PRESP   = 1  // executive stack pointer
	PRSSP   = 2  // supervisor stack pointer
	PRUSP   = 3  // user stack pointer
	PRISP   = 4  // interrupt stack pointer
	PRP0BR  = 8  // P0 base register
	PRP0LR  = 9  // P0 length register
	PRP1BR  = 10 // P1 base register
	PRP1LR  = 11 // P1 length register
	PRSBR   = 12 // system base register
	PRSLR   = 13 // system length register
	PRPCBB  = 16 // process control block base (physical)
	PRSCBB  = 17 // system control block base (physical)
	PRIPL   = 18 // interrupt priority level
	PRASTLV = 19 // AST level
	PRSIRR  = 20 // software interrupt request (write only)
	PRSISR  = 21 // software interrupt summary
	PRICCS  = 24 // interval clock control/status
	PRNICR  = 25 // next interval count
	PRMAPEN = 56 // memory management enable
	PRTBIA  = 57 // TB invalidate all
	PRTBIS  = 58 // TB invalidate single
)

// Storage slots for the internal registers the model keeps.
const (
	IPRSlotKSP = iota // kernel, exec, super, user SPs occupy 4 consecutive slots
	IPRSlotESP
	IPRSlotSSP
	IPRSlotUSP
	IPRSlotISP
	IPRSlotPCBB
	IPRSlotSCBB
	IPRSlotSISR
	IPRSlotASTLV
	IPRSlotICCS
	IPRSlotNICR
	iprCount
)

// SCB vector offsets (bytes from SCBB). A subset of the architectural
// system control block layout.
const (
	SCBMachineChk   = 0x04
	SCBArithTrap    = 0x34 // arithmetic trap (integer overflow, IV enabled)
	SCBAccessViol   = 0x20 // length violation / access control
	SCBTransInval   = 0x24 // translation not valid (page fault)
	SCBReservedOp   = 0x10 // reserved/privileged instruction
	SCBReservedAddr = 0x1C // reserved addressing mode (malformed specifier)
	SCBCHMK         = 0x40
	SCBCHME         = 0x44
	SCBSoftBase     = 0x80 // software interrupt level n vectors at 0x80+4n
	SCBClock        = 0xC0 // interval timer, IPL 24
	SCBTerminal     = 0xF8 // terminal controller, IPL 20 (model device)
	SCBDiskDevice   = 0xF4 // disk controller, IPL 21 (model device)
)

// InterruptPriority levels used by the model's devices.
const (
	IPLSoftMax  = 15
	IPLTerminal = 20
	IPLDisk     = 21
	IPLClock    = 24
)

// IPR reads an internal processor register slot (console access; the timed
// path is the MFPR instruction).
func (m *Machine) IPR(slot int) uint32 { return m.ipr[slot] }

// SetIPR writes an internal processor register slot (console access).
func (m *Machine) SetIPR(slot int, v uint32) { m.ipr[slot] = v }

// prRead implements MFPR semantics for the registers the model keeps.
func (m *Machine) prRead(n uint32) uint32 {
	switch n {
	case PRKSP, PRESP, PRSSP, PRUSP:
		if m.CurrentMode() == n { // current mode's SP lives in R14
			return m.R[14]
		}
		return m.ipr[IPRSlotKSP+int(n)]
	case PRISP:
		return m.ipr[IPRSlotISP]
	case PRP0BR:
		return m.MMU.P0BR
	case PRP0LR:
		return m.MMU.P0LR
	case PRP1BR:
		return m.MMU.P1BR
	case PRP1LR:
		return m.MMU.P1LR
	case PRSBR:
		return m.MMU.SBR
	case PRSLR:
		return m.MMU.SLR
	case PRPCBB:
		return m.ipr[IPRSlotPCBB]
	case PRSCBB:
		return m.ipr[IPRSlotSCBB]
	case PRIPL:
		return m.PSL >> 16 & 0x1F
	case PRSISR:
		return m.ipr[IPRSlotSISR]
	case PRASTLV:
		return m.ipr[IPRSlotASTLV]
	case PRICCS:
		return m.ipr[IPRSlotICCS]
	case PRNICR:
		return m.ipr[IPRSlotNICR]
	case PRMAPEN:
		if m.MMU.Enabled {
			return 1
		}
		return 0
	}
	return 0
}

// prWrite implements MTPR semantics.
func (m *Machine) prWrite(n, v uint32) {
	switch n {
	case PRKSP, PRESP, PRSSP, PRUSP:
		if m.CurrentMode() == n {
			m.R[14] = v
		} else {
			m.ipr[IPRSlotKSP+int(n)] = v
		}
	case PRISP:
		m.ipr[IPRSlotISP] = v
	case PRP0BR, PRP0LR, PRP1BR, PRP1LR, PRSBR, PRSLR, PRMAPEN:
		m.mmuWrite(n, v)
	case PRPCBB:
		m.ipr[IPRSlotPCBB] = v
	case PRSCBB:
		m.ipr[IPRSlotSCBB] = v
	case PRIPL:
		m.PSL = m.PSL&^(0x1F<<16) | (v&0x1F)<<16
	case PRSIRR:
		// Request software interrupt at level v (1..15).
		if v >= 1 && v <= IPLSoftMax {
			m.ipr[IPRSlotSISR] |= 1 << v
			m.hw.SIRRRequests++
		}
	case PRSISR:
		m.ipr[IPRSlotSISR] = v & 0xFFFE
	case PRASTLV:
		m.ipr[IPRSlotASTLV] = v
	case PRICCS:
		m.ipr[IPRSlotICCS] = v
	case PRNICR:
		m.ipr[IPRSlotNICR] = v
	case PRTBIA:
		m.TLB.FlushAll()
	case PRTBIS:
		m.TLB.Invalidate(v)
	}
}

// mmuWrite implements MTPR to a memory-management register. The write
// lands inside an instruction, so it drops the I-box's frame window.
func (m *Machine) mmuWrite(n, v uint32) {
	switch n {
	case PRP0BR:
		m.MMU.P0BR = v
	case PRP0LR:
		m.MMU.P0LR = v
	case PRP1BR:
		m.MMU.P1BR = v
	case PRP1LR:
		m.MMU.P1LR = v
	case PRSBR:
		m.MMU.SBR = v
	case PRSLR:
		m.MMU.SLR = v
	case PRMAPEN:
		m.MMU.Enabled = v&1 != 0
	}
	m.ib.dropWindow()
}
