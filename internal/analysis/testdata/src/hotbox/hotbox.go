// Package hotbox seeds the dispatch shapes the hotbox analyzer flags on
// the tick path: fmt calls, explicit and implicit interface boxing, map
// iteration and map lookup — plus the silent shapes (a pointer riding in
// the interface word, interface-to-interface copies, arguments of a
// pruned cold call, and a line-allowed boxing).
package hotbox

import "fmt"

type Machine struct {
	cycle uint64
	tab   map[uint16]uint16
	sink  any
}

func (m *Machine) Step() {
	fmt.Printf("cycle %d\n", m.cycle) // want `hot path \(Machine\.Step\): fmt\.Printf formats through reflection per cycle`
	m.sink = m.cycle                  // want `hot path \(Machine\.Step\): assignment boxes uint64 into any per cycle`
	v := any(m.cycle)                 // want `hot path \(Machine\.Step\): conversion boxes uint64 into any per cycle`
	_ = v
	m.take(m.cycle)        // want `hot path \(Machine\.Step\): argument boxes uint64 into any per cycle in the call to take`
	for k := range m.tab { // want `hot path \(Machine\.Step\): map iteration per cycle`
		_ = k
	}
	w := m.tab[3] // want `hot path \(Machine\.Step\): map lookup per cycle; replace with a dense table`
	_ = w

	m.sink = &m.cycle // silent: a pointer fits the interface word
	var o any = m.sink
	m.sink = o // silent: interface-to-interface copy
	m.cold(m.cycle)
	//vaxlint:allow hotbox -- cold: reached only on the error path of a decode the caller aborts on
	m.take(m.tab[0])
}

func (m *Machine) take(v any) { m.sink = v }

//vaxlint:allow hotpath -- cold: diagnostic formatting once, after the machine stops
func (m *Machine) cold(v any) { m.sink = v }
