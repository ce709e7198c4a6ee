package cpu

// SetReferenceTranslation switches m's functional path to the reference
// it is checked against: every I-stream and D-stream byte translated by
// its own mmu.Translate walk, with no page runs and no memo.
func SetReferenceTranslation(m *Machine, on bool) { m.refXlate = on }
