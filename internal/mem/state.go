package mem

import (
	"bytes"
	"fmt"
)

// Serialized state of the memory subsystem, for the checkpoint/resume
// path (internal/checkpoint). Export copies everything it captures so the
// live structure can keep running after a snapshot is taken; Import
// restores a structure built with the same configuration. Fields wired at
// construction or attachment time (timing config, injectors) are not part
// of the state: the resume path reconstructs the structure first and then
// imports into it. MemoryState.Size records the array size only so that
// ImportState can refuse a state taken from a different one. The
// statecomplete analyzer holds each live struct to these state structs
// field by field.

// MemoryState is the serialized state of the physical memory array. It
// carries only the 512-byte page frames that hold a non-zero byte: Frames
// lists their indices in ascending order and Data holds them in the same
// order, 512 bytes each (a final partial frame padded with zeros). Every
// frame not listed is all zero. The form is canonical — equal memories
// export equal states — so a state compares, encodes and resumes exactly
// as the whole array would.
type MemoryState struct {
	Size     uint32
	Frames   []uint32
	Data     []byte
	Fault    Fault
	HasFault bool
}

// zeroFrame is the all-zero frame ExportState and ImportState compare
// against.
var zeroFrame [1 << frameShift]byte

// ExportState captures the non-zero frames of the memory array and its
// error latch. Absent chunks are skipped unscanned: they hold only zeros.
func (m *Memory) ExportState() MemoryState {
	st := MemoryState{Size: m.size, Fault: m.fault, HasFault: m.hasFault}
	const perChunk = chunkSize >> frameShift
	for i, c := range m.chunks {
		if c == nil {
			continue
		}
		for f := uint32(i) * perChunk; f < min(uint32(i+1)*perChunk, m.frames()); f++ {
			if frame := m.frameAt(f); !bytes.Equal(frame, zeroFrame[:len(frame)]) {
				st.Frames = append(st.Frames, f)
			}
		}
	}
	if len(st.Frames) > 0 {
		st.Data = make([]byte, len(st.Frames)<<frameShift)
		for i, f := range st.Frames {
			copy(st.Data[i<<frameShift:], m.frameAt(f))
		}
	}
	return st
}

// frames returns the number of page frames in the array; the last one
// may be short.
func (m *Memory) frames() uint32 {
	return uint32((uint64(m.size) + 1<<frameShift - 1) >> frameShift)
}

// frameLen returns the length of frame f inside the array.
func (m *Memory) frameLen(f uint32) int {
	return int(min(1<<frameShift, uint64(m.size)-uint64(f)<<frameShift))
}

// frameAt returns frame f of the array, or nil if its chunk is absent.
func (m *Memory) frameAt(f uint32) []byte {
	pa := f << frameShift
	c := m.chunks[pa>>chunkShift]
	if c == nil {
		return nil
	}
	off := pa & chunkMask
	return c[off : off+uint32(m.frameLen(f))]
}

// ImportState restores a state captured from a memory of the same size.
// It accepts only the canonical form ExportState produces and validates
// the whole state before it writes a byte, so a rejected state leaves
// the memory as it was. Chunks already present are cleared in place, so
// a frame window taken before the import still aliases the live array.
func (m *Memory) ImportState(st MemoryState) error {
	if st.Size != m.size {
		return fmt.Errorf("mem: snapshot is of a %d-byte memory, memory has %d", st.Size, m.size)
	}
	if len(st.Data) != len(st.Frames)<<frameShift {
		return fmt.Errorf("mem: snapshot holds %d bytes for %d frames", len(st.Data), len(st.Frames))
	}
	for i, f := range st.Frames {
		if f >= m.frames() {
			return fmt.Errorf("mem: snapshot frame %d lies beyond a %d-byte memory", f, m.size)
		}
		if i > 0 && f <= st.Frames[i-1] {
			return fmt.Errorf("mem: snapshot frame %d follows frame %d", f, st.Frames[i-1])
		}
		data := st.Data[i<<frameShift : (i+1)<<frameShift]
		if bytes.Equal(data, zeroFrame[:]) {
			return fmt.Errorf("mem: snapshot lists all-zero frame %d", f)
		}
		if n := m.frameLen(f); !bytes.Equal(data[n:], zeroFrame[n:]) {
			return fmt.Errorf("mem: snapshot frame %d holds data beyond the end of memory", f)
		}
	}
	for _, c := range m.chunks {
		if c != nil {
			clear(c[:])
		}
	}
	for i, f := range st.Frames {
		// The padding of a short last frame is zero, and so is the chunk
		// past the end of memory, so a whole frame can be copied.
		pa := f << frameShift
		copy(m.chunk(pa)[pa&chunkMask:], st.Data[i<<frameShift:(i+1)<<frameShift])
	}
	m.fault = st.Fault
	m.hasFault = st.HasFault
	m.gen++
	return nil
}

// SBIState is the serialized state of the backplane.
type SBIState struct {
	BusyUntil  uint64
	Stats      SBIStats
	FaultCycle uint64
	HasFault   bool
}

// ExportState captures the bus occupancy, statistics and error latch.
func (s *SBI) ExportState() SBIState {
	return SBIState{
		BusyUntil:  s.busyUntil,
		Stats:      s.stats,
		FaultCycle: s.faultCycle,
		HasFault:   s.hasFault,
	}
}

// ImportState restores a captured SBI state.
func (s *SBI) ImportState(st SBIState) {
	s.busyUntil = st.BusyUntil
	s.stats = st.Stats
	s.faultCycle = st.FaultCycle
	s.hasFault = st.HasFault
}

// WriteBufferState is the serialized state of the write buffer.
type WriteBufferState struct {
	Drains []uint64
	Stats  WriteBufferStats
}

// ExportState captures the buffered-write drain times and statistics.
func (w *WriteBuffer) ExportState() WriteBufferState {
	st := WriteBufferState{
		Drains: make([]uint64, len(w.drains)),
		Stats:  w.stats,
	}
	copy(st.Drains, w.drains)
	return st
}

// ImportState restores a state captured from a buffer of the same depth.
func (w *WriteBuffer) ImportState(st WriteBufferState) error {
	if len(st.Drains) > w.depth {
		return fmt.Errorf("mem: snapshot holds %d buffered writes, buffer depth is %d",
			len(st.Drains), w.depth)
	}
	w.drains = append(w.drains[:0], st.Drains...)
	w.stats = st.Stats
	return nil
}
