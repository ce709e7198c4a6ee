package statecomplete

// State is the serialized form of Device.
type State struct {
	A int
	D int
}

// Device has one justified exemption (c), one field the snapshot
// silently drops (b — declared right below c's trailing allow note,
// which covers only its own line), and one field captured on export but
// forgotten on import (d).
type Device struct {
	a int
	c int //vaxlint:allow statecomplete -- derived scratch, rebuilt on first use
	b int // want `field Device\.b is not referenced in ExportState or ImportState`
	d int // want `field Device\.d is not referenced in ImportState`
	//vaxlint:allow statecomplete -- a note alone on its line covers the line below
	e int
}

func (dv *Device) ExportState() State   { return State{A: dv.a, D: dv.d} }
func (dv *Device) ImportState(st State) { dv.a = st.A }

// Clean captures everything in both directions: no findings.
type Clean struct {
	x int
	y int
}

func (c *Clean) ExportState() [2]int { return [2]int{c.x, c.y} }
func (c *Clean) ImportState(v [2]int) {
	c.x = v[0]
	c.y = v[1]
}

// NoMethods has no ExportState/ImportState pair: out of scope.
type NoMethods struct {
	z int
}
