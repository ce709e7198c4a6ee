// Package uwclean is the negative fixture: every class counted on its
// own channel, every word reachable. Both µflow analyzers must stay
// silent on it.
package uwclean

import "uwucode"

type Machine struct {
	counts map[uint16]uint64
	stalls map[uint16]uint64
}

func (m *Machine) tick(w uint16)            { m.counts[w]++ }
func (m *Machine) ticks(w uint16, n uint64) { m.counts[w] += n }
func (m *Machine) stall(w uint16, c uint64) { m.stalls[w] += c }
func (m *Machine) ibStallTick(w uint16)     { m.counts[w]++ }
func (m *Machine) tickFree(w uint16)        { m.counts[w]++ }

var cs = uwucode.NewStore()

var uw = struct {
	sAlu uint16
	rd   uint16
	ib   uint16
	mark uint16
}{
	sAlu: cs.Define("clean.simple.alu", uwucode.RowSimple, uwucode.ClassCompute),
	rd:   cs.Define("clean.mem.read", uwucode.RowSimple, uwucode.ClassRead),
	ib:   cs.Define("clean.ib.stall", uwucode.RowSimple, uwucode.ClassIBStall),
	mark: cs.Define("clean.fold.mark", uwucode.RowSimple, uwucode.ClassMarker),
}

func pump(m *Machine, wait uint64) {
	if wait > 0 {
		m.stall(uw.rd, wait)
	}
	m.tick(uw.rd)
	m.ibStallTick(uw.ib)
	m.tickFree(uw.mark)
}
