package mem

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

const frameSize = 1 << frameShift

// fill sets byte i of m to f(i), for every byte.
func fill(m *Memory, f func(i int) byte) {
	b := make([]byte, m.Size())
	for i := range b {
		b[i] = f(i)
	}
	m.Load(0, b)
}

// contents returns a copy of every byte of m.
func contents(m *Memory) []byte { return m.Read(0, int(m.Size())) }

// roundTrip exports src, imports the state into a same-size memory whose
// every byte is non-zero, and requires the two arrays to be identical:
// the import must zero every frame the state omits.
func roundTrip(t *testing.T, src *Memory) MemoryState {
	t.Helper()
	st := src.ExportState()
	dst := New(src.Size())
	fill(dst, func(int) byte { return 0xff })
	if err := dst.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	if !bytes.Equal(contents(dst), contents(src)) {
		t.Fatal("imported memory differs from the exported one")
	}
	if again := dst.ExportState(); !reflect.DeepEqual(again, st) {
		t.Fatal("re-export of the imported memory differs from the state")
	}
	return st
}

func TestMemoryStateRoundTripAllZero(t *testing.T) {
	st := roundTrip(t, New(8*frameSize))
	if st.Frames != nil || st.Data != nil {
		t.Errorf("all-zero memory exported %d frames, %d bytes; want none", len(st.Frames), len(st.Data))
	}
}

func TestMemoryStateRoundTripAllNonZero(t *testing.T) {
	m := New(8 * frameSize)
	fill(m, func(i int) byte { return byte(i%255 + 1) })
	if st := roundTrip(t, m); len(st.Frames) != 8 || len(st.Data) != int(m.Size()) {
		t.Errorf("exported %d frames, %d bytes; want 8 frames, %d bytes", len(st.Frames), len(st.Data), m.Size())
	}
}

func TestMemoryStateRoundTripLastByte(t *testing.T) {
	m := New(8 * frameSize)
	m.SetByte(m.Size()-1, 0x5a)
	if st := roundTrip(t, m); !slices.Equal(st.Frames, []uint32{7}) {
		t.Errorf("Frames = %v, want [7]", st.Frames)
	}
}

// TestMemoryStateRoundTripPartialFrame covers a memory whose size is not
// a whole number of frames: its last frame travels zero-padded.
func TestMemoryStateRoundTripPartialFrame(t *testing.T) {
	m := New(3*frameSize + 100)
	m.SetByte(m.Size()-1, 0x5a)
	if st := roundTrip(t, m); !slices.Equal(st.Frames, []uint32{3}) || len(st.Data) != frameSize {
		t.Errorf("Frames = %v, %d bytes; want [3], %d bytes", st.Frames, len(st.Data), frameSize)
	}
}

func TestMemoryStateRoundTripSparse(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(64*frameSize + uint32(rng.Intn(frameSize)))
		want := map[uint32]bool{}
		for range rng.Intn(40) {
			pa := uint32(rng.Intn(int(m.Size())))
			m.SetByte(pa, byte(rng.Intn(255)+1))
			want[pa>>frameShift] = true
		}
		st := roundTrip(t, m)
		if len(st.Frames) != len(want) {
			t.Errorf("seed %d: exported %d frames, want %d", seed, len(st.Frames), len(want))
		}
		for _, f := range st.Frames {
			if !want[f] {
				t.Errorf("seed %d: exported frame %d, which holds only zeros", seed, f)
			}
		}
	}
}

// TestMemoryStateRoundTripAbsentChunks: a memory that touched only some
// of its chunks exports just their non-zero frames, an import into a
// memory with every chunk present zeroes the rest, and an import into a
// fresh memory allocates only the chunks the state lists frames in.
func TestMemoryStateRoundTripAbsentChunks(t *testing.T) {
	m := New(5*chunkSize + 100)
	m.WriteLong(2*chunkSize+0x40, 0xcafef00d)
	m.SetByte(m.Size()-1, 9)
	if n := present(m); n != 2 {
		t.Fatalf("%d chunks present after two writes, want 2", n)
	}
	st := roundTrip(t, m)
	want := []uint32{2 * chunkSize >> frameShift, (m.Size() - 1) >> frameShift}
	if !slices.Equal(st.Frames, want) {
		t.Errorf("Frames = %v, want %v", st.Frames, want)
	}
	fresh := New(m.Size())
	if err := fresh.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if n := present(fresh); n != 2 {
		t.Errorf("import allocated %d chunks, want 2", n)
	}
	if !bytes.Equal(contents(fresh), contents(m)) {
		t.Error("fresh import differs from the exported memory")
	}
}

// present counts the chunks m has allocated.
func present(m *Memory) int {
	n := 0
	for _, c := range m.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// TestMemoryStateCanonical: two memories with equal contents, written in
// different orders and with different histories, export equal states.
func TestMemoryStateCanonical(t *testing.T) {
	a, b := New(16*frameSize), New(16*frameSize)
	a.WriteLong(0x400, 0xdeadbeef)
	a.SetByte(0x1fff, 7)
	b.SetByte(0x1fff, 7)
	b.WriteLong(0x800, 0x12345678) // written, then cleared again
	b.WriteLong(0x800, 0)
	b.WriteLong(0x400, 0xdeadbeef)
	if !reflect.DeepEqual(a.ExportState(), b.ExportState()) {
		t.Error("equal memories exported different states")
	}
}

// TestMemoryImportRejects requires every malformed state to be refused
// with an error, and the memory it was offered to to keep every byte,
// its fault latch and its write generation.
func TestMemoryImportRejects(t *testing.T) {
	src := New(4*frameSize + 100)
	src.SetByte(0x10, 1)
	src.SetByte(2*frameSize+3, 2)
	src.SetByte(4*frameSize+99, 3)
	good := src.ExportState()

	bad := map[string]func(st *MemoryState){
		"wrong size":          func(st *MemoryState) { st.Size += frameSize },
		"index out of range":  func(st *MemoryState) { st.Frames[2] = 5 },
		"unordered indices":   func(st *MemoryState) { st.Frames[0], st.Frames[1] = st.Frames[1], st.Frames[0] },
		"duplicate indices":   func(st *MemoryState) { st.Frames[1] = st.Frames[0] },
		"data too short":      func(st *MemoryState) { st.Data = st.Data[:len(st.Data)-1] },
		"data too long":       func(st *MemoryState) { st.Data = append(st.Data, 0) },
		"all-zero frame":      func(st *MemoryState) { clear(st.Data[frameSize : 2*frameSize]) },
		"data past the array": func(st *MemoryState) { st.Data[len(st.Data)-1] = 9 },
	}
	for name, corrupt := range bad {
		st := good
		st.Frames = slices.Clone(good.Frames)
		st.Data = slices.Clone(good.Data)
		corrupt(&st)

		m := New(src.Size())
		fill(m, func(i int) byte { return byte(i*7 + 1) })
		m.latch(FaultRDS, 0x44)
		before, gen := contents(m), m.Gen()
		if err := m.ImportState(st); err == nil {
			t.Errorf("%s: ImportState accepted the state", name)
			continue
		}
		if !bytes.Equal(contents(m), before) || m.Gen() != gen {
			t.Errorf("%s: rejected import changed the memory", name)
		}
		if f, ok := m.TakeFault(); !ok || f != (Fault{Kind: FaultRDS, Addr: 0x44}) {
			t.Errorf("%s: rejected import changed the fault latch: %+v %v", name, f, ok)
		}
	}
}

// FuzzMemoryImport offers ImportState states built from arbitrary bytes:
// one byte per frame index, the data as given or tiled to the length the
// indices need, the size off by a delta. ImportState must never panic, a
// rejected state must leave the memory untouched, and an accepted one
// must re-export to itself.
func FuzzMemoryImport(f *testing.F) {
	const size = 5*frameSize + 100
	src := New(size)
	src.SetByte(0, 1)
	src.SetByte(3*frameSize+17, 2)
	src.SetByte(size-1, 3)
	st := src.ExportState()
	idx := make([]byte, len(st.Frames))
	for i, fr := range st.Frames {
		idx[i] = byte(fr)
	}
	f.Add(int16(0), idx, st.Data, false)
	f.Add(int16(0), []byte{1, 2}, []byte{0xaa}, true)
	f.Add(int16(0), []byte{2, 1}, []byte{0xaa}, true)
	f.Add(int16(0), []byte{5}, []byte{0, 0, 1}, true)
	f.Add(int16(-1), []byte{0}, []byte{1}, true)
	f.Add(int16(0), []byte{}, []byte{}, false)
	f.Fuzz(func(t *testing.T, delta int16, idx, data []byte, tile bool) {
		var st MemoryState
		st.Size = uint32(int32(size) + int32(delta))
		for _, b := range idx {
			st.Frames = append(st.Frames, uint32(b))
		}
		st.Data = data
		if tile && len(data) > 0 {
			st.Data = make([]byte, len(st.Frames)*frameSize)
			for i := range st.Data {
				st.Data[i] = data[i%len(data)]
			}
		}
		m := New(size)
		fill(m, func(i int) byte { return byte(i%251 + 1) })
		before := contents(m)
		if err := m.ImportState(st); err != nil {
			if !bytes.Equal(contents(m), before) {
				t.Fatalf("rejected import (%v) changed the memory", err)
			}
			return
		}
		got := m.ExportState()
		if got.Size != st.Size || !slices.Equal(got.Frames, st.Frames) || !bytes.Equal(got.Data, st.Data) {
			t.Fatalf("accepted state re-exports differently: frames %v -> %v", st.Frames, got.Frames)
		}
	})
}

var exportSink MemoryState

// BenchmarkMemoryExportState measures the export of an 8 MB memory with
// 900 non-zero frames, about what a generated workload holds at 2M
// cycles: the zero scan of every chunk (900 random frames touch them
// all) plus the copy of the frames.
func BenchmarkMemoryExportState(b *testing.B) {
	m := New(8 << 20)
	rng := rand.New(rand.NewSource(1))
	for _, f := range rng.Perm(int(m.Size()) >> frameShift)[:900] {
		frame := make([]byte, frameSize)
		rng.Read(frame)
		frame[0] = 1
		m.Load(uint32(f)<<frameShift, frame)
	}
	b.SetBytes(int64(m.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		exportSink = m.ExportState()
	}
}
