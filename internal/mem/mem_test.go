package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMemoryReadWrite(t *testing.T) {
	m := New(4096)
	m.WriteLong(0x100, 0xDEADBEEF)
	if got := m.ReadLong(0x100); got != 0xDEADBEEF {
		t.Errorf("ReadLong = %#x", got)
	}
	if got := m.Byte(0x100); got != 0xEF {
		t.Errorf("little-endian byte 0 = %#x, want 0xEF", got)
	}
	if got := m.Byte(0x103); got != 0xDE {
		t.Errorf("byte 3 = %#x, want 0xDE", got)
	}
	m.SetByte(0x101, 0x00)
	if got := m.ReadLong(0x100); got != 0xDEAD00EF {
		t.Errorf("after byte write: %#x", got)
	}
}

func TestMemoryLoadRead(t *testing.T) {
	m := New(1024)
	m.Load(10, []byte{1, 2, 3})
	if got := m.Read(10, 3); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Read = %v", got)
	}
}

func TestMemoryBoundsLatchFault(t *testing.T) {
	m := New(16)
	if got := m.ReadLong(14); got != 0 {
		t.Errorf("out-of-range read = %#x, want 0", got)
	}
	f, ok := m.TakeFault()
	if !ok || f.Kind != FaultRange || f.Addr != 14 {
		t.Errorf("latched fault = %+v ok=%v, want FaultRange at 14", f, ok)
	}
	if _, ok := m.TakeFault(); ok {
		t.Error("TakeFault should clear the latch")
	}
	// The latch holds the FIRST syndrome only.
	m.ReadLong(20)
	m.SetByte(40, 1)
	f, ok = m.TakeFault()
	if !ok || f.Addr != 20 {
		t.Errorf("first-error latch = %+v ok=%v, want addr 20", f, ok)
	}
	// Out-of-range writes are dropped, not applied mod-size.
	m2 := New(32)
	m2.WriteLong(30, 0xFFFFFFFF)
	if got := m2.ReadLong(28); got != 0 {
		t.Errorf("dropped write leaked: %#x", got)
	}
	m2.TakeFault()
}

func TestMemoryRDSInjection(t *testing.T) {
	m := New(64)
	m.WriteLong(8, 0x12345678)
	fire := false
	m.SetInjector(func() bool { return fire })
	if got := m.ReadLong(8); got != 0x12345678 {
		t.Errorf("read with idle injector = %#x", got)
	}
	if _, ok := m.TakeFault(); ok {
		t.Error("idle injector latched a fault")
	}
	fire = true
	// RDS delivers the (still correct) data AND latches the syndrome: the
	// error is in the modelled check bits, not the simulated array.
	if got := m.ReadLong(8); got != 0x12345678 {
		t.Errorf("RDS read = %#x, want correct data", got)
	}
	f, ok := m.TakeFault()
	if !ok || f.Kind != FaultRDS || f.Addr != 8 {
		t.Errorf("RDS fault = %+v ok=%v", f, ok)
	}
	if s := f.Kind.String(); s == "" || s == "unknown memory fault" {
		t.Errorf("FaultRDS string = %q", s)
	}
}

// TestFrameAliasesMemory checks Frame hands out the live frame, and
// nothing for a frame the array does not wholly hold.
func TestFrameAliasesMemory(t *testing.T) {
	m := New(3*512 + 100)
	f := m.Frame(512 + 7)
	if len(f) != 512 || cap(f) != 512 {
		t.Fatalf("frame len %d cap %d, want 512", len(f), cap(f))
	}
	m.SetByte(512+9, 0xAB)
	if f[9] != 0xAB {
		t.Fatalf("frame byte 9 = %#x after a store, want 0xAB", f[9])
	}
	if g := m.Frame(3*512 + 5); g != nil {
		t.Fatalf("partial last frame handed out (len %d)", len(g))
	}
	if g := m.Frame(1 << 30); g != nil {
		t.Fatalf("frame past the array handed out (len %d)", len(g))
	}
}

// TestChunkBoundary reads and writes across the boundary between two
// chunks, with either side absent or present.
func TestChunkBoundary(t *testing.T) {
	const edge = chunkSize
	m := New(3 * chunkSize)
	if v := m.ReadLong(edge - 2); v != 0 {
		t.Fatalf("ReadLong over absent chunks = %#x, want 0", v)
	}
	if n := present(m); n != 0 {
		t.Fatalf("reads allocated %d chunks", n)
	}
	m.WriteLong(edge-2, 0x44332211)
	if got := m.Read(edge-2, 4); !bytes.Equal(got, []byte{0x11, 0x22, 0x33, 0x44}) {
		t.Fatalf("Read after WriteLong across the edge = % x", got)
	}
	if v := m.ReadLong(edge - 2); v != 0x44332211 {
		t.Fatalf("ReadLong across the edge = %#x", v)
	}
	for pa, want := range map[uint32]byte{edge - 3: 0, edge - 2: 0x11, edge - 1: 0x22, edge: 0x33, edge + 1: 0x44, edge + 2: 0} {
		if b := m.Byte(pa); b != want {
			t.Errorf("Byte(%#x) = %#x, want %#x", pa, b, want)
		}
	}

	// Load and Read over three chunks, the middle one whole.
	img := make([]byte, chunkSize+200)
	for i := range img {
		img[i] = byte(i%253 + 1)
	}
	m = New(3 * chunkSize)
	m.Load(edge-100, img)
	if n := present(m); n != 3 {
		t.Fatalf("Load over three chunks allocated %d", n)
	}
	if got := m.Read(edge-100, len(img)); !bytes.Equal(got, img) {
		t.Fatal("Read of a Load across chunks differs")
	}
	if v, want := m.ReadLong(2*edge-1), uint32(img[edge+99])|uint32(img[edge+100])<<8|
		uint32(img[edge+101])<<16|uint32(img[edge+102])<<24; v != want {
		t.Fatalf("ReadLong across the second edge = %#x, want %#x", v, want)
	}

	// A Read that spans an absent chunk returns its zeros.
	m = New(3 * chunkSize)
	m.SetByte(0, 1)
	m.SetByte(2*chunkSize, 2)
	got := m.Read(0, 2*chunkSize+1)
	if got[0] != 1 || got[2*chunkSize] != 2 || !bytes.Equal(got[1:2*chunkSize], make([]byte, 2*chunkSize-1)) {
		t.Fatal("Read over an absent chunk is not zero between the written bytes")
	}
	if n := present(m); n != 2 {
		t.Fatalf("Read allocated a chunk: %d present, want 2", n)
	}
}

// TestFrameOverAbsentChunk: a frame handed out over a chunk nothing has
// written yet still aliases the array, so every later write shows.
func TestFrameOverAbsentChunk(t *testing.T) {
	m := New(2 * chunkSize)
	f := m.Frame(chunkSize + 512 + 3)
	if len(f) != 512 || !bytes.Equal(f, make([]byte, 512)) {
		t.Fatalf("frame over an absent chunk: len %d, non-zero bytes", len(f))
	}
	m.SetByte(chunkSize+512+1, 0xAB)
	m.WriteLong(chunkSize+512+8, 0xdeadbeef)
	m.Load(chunkSize+512+20, []byte{1, 2, 3})
	if f[1] != 0xAB || f[8] != 0xef || f[11] != 0xde || !bytes.Equal(f[20:23], []byte{1, 2, 3}) {
		t.Fatalf("frame misses later writes: % x", f[:24])
	}
	if n := present(m); n != 1 {
		t.Fatalf("%d chunks present, want 1", n)
	}
}

// TestSampledMatchesByte checks Sampled consults the RDS sampler and
// latches exactly as the same number of Byte calls would.
func TestSampledMatchesByte(t *testing.T) {
	byByte, bySampled := New(1024), New(1024)
	var nByte, nSampled int
	byByte.SetInjector(func() bool { nByte++; return nByte == 5 })
	bySampled.SetInjector(func() bool { nSampled++; return nSampled == 5 })
	for pa := uint32(100); pa < 108; pa++ {
		byByte.Byte(pa)
	}
	bySampled.Sampled(100, 8)
	fb, okb := byByte.TakeFault()
	fs, oks := bySampled.TakeFault()
	if nByte != nSampled || fb != fs || okb != oks {
		t.Fatalf("Sampled: %d samples, fault %+v (%v); Byte: %d samples, fault %+v (%v)", nSampled, fs, oks, nByte, fb, okb)
	}
	if fs != (Fault{Kind: FaultRDS, Addr: 104}) {
		t.Fatalf("latched %+v, want RDS at 104", fs)
	}
}

func TestPropertyMemoryLongRoundTrip(t *testing.T) {
	m := New(1 << 16)
	f := func(addr uint16, v uint32) bool {
		pa := uint32(addr)
		if pa > m.Size()-4 {
			pa = m.Size() - 4
		}
		m.WriteLong(pa, v)
		return m.ReadLong(pa) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mustSBI builds a default-configured SBI, failing the test on error.
func mustSBI(t *testing.T) *SBI {
	t.Helper()
	s, err := NewSBI(DefaultSBIConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSBIBadConfigErrors(t *testing.T) {
	if _, err := NewSBI(SBIConfig{ReadLatency: 0, WriteOccupancy: 6}); err == nil {
		t.Error("zero read latency should be rejected")
	}
	if _, err := NewSBI(SBIConfig{ReadLatency: 6, WriteOccupancy: -1}); err == nil {
		t.Error("negative write occupancy should be rejected")
	}
}

func TestSBITimeoutInjection(t *testing.T) {
	s := mustSBI(t)
	fire := false
	s.SetInjector(func() bool { return fire })
	if done := s.Read(100); done != 106 {
		t.Errorf("clean read done = %d", done)
	}
	fire = true
	// A timed-out transaction completes after the timeout interval plus
	// the normal latency, and latches the starting cycle.
	if done := s.Read(200); done != 200+TimeoutPenalty+6 {
		t.Errorf("timed-out read done = %d, want %d", done, 200+TimeoutPenalty+6)
	}
	cyc, ok := s.TakeFault()
	if !ok || cyc != 200 {
		t.Errorf("latched timeout = %d ok=%v, want cycle 200", cyc, ok)
	}
	if s.Stats().Timeouts != 1 {
		t.Errorf("timeouts = %d", s.Stats().Timeouts)
	}
}

func TestSBIUncontendedRead(t *testing.T) {
	s := mustSBI(t)
	if done := s.Read(100); done != 106 {
		t.Errorf("read done = %d, want 106", done)
	}
	if s.Stats().Reads != 1 {
		t.Errorf("reads = %d", s.Stats().Reads)
	}
}

func TestSBIContention(t *testing.T) {
	s := mustSBI(t)
	first := s.Read(100) // 106
	second := s.Read(102)
	if second != first+6 {
		t.Errorf("contended read done = %d, want %d", second, first+6)
	}
	// After the bus drains, a later read is uncontended again.
	third := s.Read(second + 10)
	if third != second+16 {
		t.Errorf("post-drain read done = %d, want %d", third, second+16)
	}
}

func TestSBIWriteOccupiesBus(t *testing.T) {
	s := mustSBI(t)
	s.Write(0) // occupies until 6
	if done := s.Read(1); done != 12 {
		t.Errorf("read behind write done = %d, want 12", done)
	}
}

func TestWriteBufferFastPath(t *testing.T) {
	s := mustSBI(t)
	w := NewWriteBuffer(s)
	if stall := w.Write(10); stall != 0 {
		t.Errorf("first write stall = %d", stall)
	}
	// A write 6+ cycles later does not stall.
	if stall := w.Write(16); stall != 0 {
		t.Errorf("spaced write stall = %d", stall)
	}
}

func TestWriteBufferBackToBackStalls(t *testing.T) {
	s := mustSBI(t)
	w := NewWriteBuffer(s)
	w.Write(10) // drains at 16
	if stall := w.Write(12); stall != 4 {
		t.Errorf("back-to-back write stall = %d, want 4", stall)
	}
	st := w.Stats()
	if st.Writes != 2 || st.Stalls != 1 || st.StallCycles != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWriteBufferChainOfWrites(t *testing.T) {
	// N back-to-back writes issued on consecutive cycles: each pays the
	// residual occupancy of its predecessor.
	s := mustSBI(t)
	w := NewWriteBuffer(s)
	now := uint64(0)
	var total uint64
	for i := 0; i < 10; i++ {
		stall := w.Write(now)
		total += stall
		now += stall + 1 // one cycle to initiate the write, then next attempt
	}
	// First write free; each subsequent write waits 5 cycles (6-cycle
	// occupancy minus the 1-cycle initiation).
	if total != 9*5 {
		t.Errorf("total stall = %d, want 45", total)
	}
}

func TestPropertySBIMonotonic(t *testing.T) {
	// Completion times never move backwards no matter the request pattern.
	f := func(deltas []uint8) bool {
		s := mustSBI(t)
		now, last := uint64(0), uint64(0)
		for i, d := range deltas {
			now += uint64(d % 8)
			var done uint64
			if i%2 == 0 {
				done = s.Read(now)
			} else {
				done = s.Write(now)
			}
			if done < last || done < now {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWriteBufferDepthTwo(t *testing.T) {
	s := mustSBI(t)
	w := NewWriteBufferDepth(s, 2)
	if w.Depth() != 2 {
		t.Fatalf("depth = %d", w.Depth())
	}
	// Two back-to-back writes fit the buffer without stalling.
	if st := w.Write(10); st != 0 {
		t.Errorf("first write stall = %d", st)
	}
	if st := w.Write(11); st != 0 {
		t.Errorf("second write stall = %d (depth 2 should absorb it)", st)
	}
	// The third must wait for the first to drain (at cycle 16).
	if st := w.Write(12); st != 4 {
		t.Errorf("third write stall = %d, want 4", st)
	}
}

func TestWriteBufferDepthReducesStalls(t *testing.T) {
	run := func(depth int) uint64 {
		s := mustSBI(t)
		w := NewWriteBufferDepth(s, depth)
		now := uint64(0)
		for i := 0; i < 50; i++ {
			now += w.Write(now) + 2 // writes two cycles apart
		}
		return w.Stats().StallCycles
	}
	d1, d2, d4 := run(1), run(2), run(4)
	if !(d1 >= d2 && d2 >= d4) {
		t.Errorf("stalls not monotone in depth: %d, %d, %d", d1, d2, d4)
	}
	if d1 == 0 {
		t.Error("depth-1 buffer should stall on 2-cycle-apart writes")
	}
}
