package tb

// State is the serialized state of the translation buffer, for the
// checkpoint/resume path (internal/checkpoint). The tracer and fault
// injector are attachment-time wiring, re-attached on resume.

// EntryState is one TB entry.
type EntryState struct {
	Valid bool
	Tag   uint32
	PFN   uint32
	MRU   bool
}

// State captures both halves, the statistics and the parity-error latch.
type State struct {
	Halves   [2][SetsPerHalf][Ways]EntryState
	Stats    Stats
	FaultVA  uint32
	HasFault bool
}

// ExportState captures the full TB state.
func (t *TB) ExportState() State {
	st := State{Stats: t.stats, FaultVA: t.faultVA, HasFault: t.hasFault}
	for h := range t.halves {
		for s := range t.halves[h] {
			for w, e := range t.halves[h][s] {
				st.Halves[h][s][w] = EntryState{Valid: e.valid, Tag: e.tag, PFN: e.pfn, MRU: e.mru}
			}
		}
	}
	return st
}

// ImportState restores a captured TB state.
func (t *TB) ImportState(st State) {
	for h := range t.halves {
		for s := range t.halves[h] {
			for w := range t.halves[h][s] {
				e := st.Halves[h][s][w]
				t.halves[h][s][w] = entry{valid: e.Valid, tag: e.Tag, pfn: e.PFN, mru: e.MRU}
			}
		}
	}
	t.stats = st.Stats
	t.faultVA = st.FaultVA
	t.hasFault = st.HasFault
}
