package uwflow

import "uwflow/bank"

// good exercises every channel on its permitted class; no findings.
func good(m *Machine, p Probe, n int) {
	m.tick(uw.compute)
	m.ticks(uw.compute, 3)
	if n > 0 {
		m.stall(uw.rd, uint64(n))
	}
	m.tick(uw.rd) // the conditional stall reaches the tick across the join
	m.tick(uw.ib)
	m.tickFree(uw.mark)
	p.Count(uw.compute, 1)
}

// loopPair ticks before stalling inside a loop body: the stall reaches
// the next iteration's tick over the back edge, so the pairing holds.
func loopPair(m *Machine) {
	for i := 0; i < 4; i++ {
		m.tick(uw.wr)
		m.stall(uw.wr, 1)
	}
}

func bad(m *Machine, p Probe) {
	m.stall(uw.ib, 1)      // want `ClassIBStall microword \(flow\.ib\) counted on the stall channel; ClassIBStall words are counted only on exec`
	m.tick(uw.mark)        // want `ClassMarker microword \(flow\.mark\) counted on the exec channel`
	m.tick(uw.rd)          // want `read/write-class microword \(flow\.rd\) ticked with no stall accounting for it on any path`
	p.Stall(uw.compute, 2) // want `ClassCompute microword \(flow\.compute\) counted on the stall channel`
}

// stallAfter accounts the stall only after the tick: both sites exist,
// but no path carries the stall to the tick, so the pairing fails.
func stallAfter(m *Machine) {
	m.tick(uw.wr) // want `read/write-class microword \(flow\.wr\) ticked with no stall accounting`
	m.stall(uw.wr, 2)
}

// viaLookup resolves the handle by name through the store namespace.
func viaLookup(m *Machine) {
	w := cs.MustLookup("flow.mark")
	m.tick(w) // want `ClassMarker microword \(flow\.mark\) counted on the exec channel`
}

// burn is a local helper: the finding lands at its interior tick, the
// offending class arriving by inflow from callsBurn.
func burn(m *Machine, w uint16) {
	m.tick(w) // want `ClassMarker microword \(parameter w\) counted on the exec channel`
}

func callsBurn(m *Machine) {
	burn(m, uw.compute)
	burn(m, uw.mark)
}

// crossPackage judges handles against bank's channel summaries, which
// arrive as object facts — as do the bindings of bank.Words.
func crossPackage(m *bank.Machine) {
	bank.BurnMem(m, bank.Words.Rd, 4) // clean: BurnMem both stalls and ticks
	bank.TickIt(m, bank.Words.Marker) // want `ClassMarker microword \(bank\.mark\) flows into TickIt, which counts it on the exec channel`
	bank.TickIt(m, bank.Words.Rd)     // want `read/write-class microword \(bank\.rd\) flows into TickIt, which ticks it without any stall accounting`
}
