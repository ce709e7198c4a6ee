// Package uwflow seeds class/channel violations for the uwflow analyzer:
// wrong-channel ticks, a read ticked with no stall on any path, a stall
// that arrives only after its tick, and handles flowing through a local
// helper (judged by class inflow) and a cross-package helper (judged by
// its exported channel summary).
package uwflow

import "uwucode"

type Machine struct {
	counts map[uint16]uint64
	stalls map[uint16]uint64
}

func (m *Machine) tick(w uint16)            { m.counts[w]++ }
func (m *Machine) ticks(w uint16, n uint64) { m.counts[w] += n }
func (m *Machine) stall(w uint16, c uint64) { m.stalls[w] += c }
func (m *Machine) tickFree(w uint16)        { m.counts[w]++ }

type Probe interface {
	Count(w uint16, n uint64)
	Stall(w uint16, c uint64)
}

var cs = uwucode.NewStore()

func def(name string, row uwucode.Row, class uwucode.Class) uint16 {
	return cs.Define(name, row, class)
}

var uw = struct {
	compute uint16
	rd      uint16
	wr      uint16
	ib      uint16
	mark    uint16
}{
	compute: def("flow.compute", uwucode.RowSimple, uwucode.ClassCompute),
	rd:      def("flow.rd", uwucode.RowSimple, uwucode.ClassRead),
	wr:      def("flow.wr", uwucode.RowSimple, uwucode.ClassWrite),
	ib:      def("flow.ib", uwucode.RowSimple, uwucode.ClassIBStall),
	mark:    def("flow.mark", uwucode.RowSimple, uwucode.ClassMarker),
}
