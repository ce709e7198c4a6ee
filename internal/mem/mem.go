// Package mem models the VAX-11/780 memory subsystem below the cache: the
// physical memory array, the SBI (Synchronous Backplane Interconnect) as a
// contended single-transaction resource, and the one-longword write buffer
// that makes the 780's write-through scheme tolerable (§2.1 of the paper).
//
// All timing in this package is expressed in EBOX cycles (200 ns).
//
// The memory array never stops the simulation on a bad reference. Like the
// real controller, it latches an error syndrome — an out-of-range physical
// address, or an injected RDS (Read Data Substitute, the 780's
// uncorrectable-error signal) — and completes the access benignly: reads
// return zero or the (still correct) array data, writes are dropped. The
// CPU polls the latch between instructions and converts it into a machine
// check (internal/cpu, DESIGN.md "Fault model & machine checks").
package mem

import "encoding/binary"

// FaultKind classifies a latched memory fault.
type FaultKind int

const (
	// FaultRange is a physical access beyond the memory array — on the
	// real machine, an SBI reference no controller answered.
	FaultRange FaultKind = iota + 1
	// FaultRDS is an uncorrectable array error: the controller delivers
	// substitute data and signals Read Data Substitute.
	FaultRDS
)

func (k FaultKind) String() string {
	switch k {
	case FaultRange:
		return "nonexistent memory"
	case FaultRDS:
		return "RDS (uncorrectable array error)"
	}
	return "unknown memory fault"
}

// Fault is one latched memory error syndrome.
type Fault struct {
	Kind FaultKind
	Addr uint32 // physical address of the failing reference
}

// frameShift is log2 of the page-frame size the write generation watches
// at: the VAX's 512-byte page (mmu.PageShift).
const frameShift = 9

// The array is held in chunks of 1<<chunkShift bytes, each allocated on
// the first write into it (or the first Frame handed out from it); an
// absent chunk reads as zero. A machine therefore holds only the memory
// its programs touch, and the one allocation, in chunk, happens at most
// Size/64 KB times per machine. A page frame never straddles two chunks.
const (
	chunkShift = 16
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// Memory is the physical memory array (the paper's machines had 8 MB).
type Memory struct {
	chunks []*[chunkSize]byte
	size   uint32

	// watch marks the frames holding page-table entries that a
	// functional translation memo depends on (Watch); gen counts the
	// writes that may have changed one (Gen). Neither is snapshot state:
	// a memo treats any generation change as "flush everything", and
	// ImportState advances the generation.
	watch []uint64 //vaxlint:allow statecomplete -- derived: marks set by the translation memo's walks; ImportState bumps gen, which empties every memo
	gen   uint64   //vaxlint:allow statecomplete -- derived: only compared for change; ImportState bumps it

	inject   func() bool //vaxlint:allow statecomplete -- attachment derived from the fault plane (RDS sampler, nil = never)
	fault    Fault
	hasFault bool
}

// New returns a physical memory of the given size in bytes. It allocates
// no array: every chunk starts absent, reading as zero.
func New(size uint32) *Memory {
	frames := (uint64(size) + 1<<frameShift - 1) >> frameShift
	return &Memory{
		chunks: make([]*[chunkSize]byte, (uint64(size)+chunkMask)>>chunkShift),
		size:   size,
		watch:  make([]uint64, (frames+63)/64),
	}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// chunk returns the chunk holding pa, allocating it on first use; pa must
// be in range.
func (m *Memory) chunk(pa uint32) *[chunkSize]byte {
	c := m.chunks[pa>>chunkShift]
	if c == nil {
		c = new([chunkSize]byte) //vaxlint:allow hotpath -- first touch of a 64 KB chunk: at most Size/64 KB allocations per machine, never one per cycle in steady state
		m.chunks[pa>>chunkShift] = c
	}
	return c
}

// at reads the byte at an in-range pa without allocating.
func (m *Memory) at(pa uint32) byte {
	if c := m.chunks[pa>>chunkShift]; c != nil {
		return c[pa&chunkMask]
	}
	return 0
}

// Watch marks the frame(s) holding the longword at pa as page-table
// frames: from now on any write into them advances the write generation.
// Marks are never cleared; an out-of-range pa is ignored.
func (m *Memory) Watch(pa uint32) {
	for _, a := range [2]uint32{pa, pa + 3} {
		if f := a >> frameShift; int(f>>6) < len(m.watch) {
			m.watch[f>>6] |= 1 << (f & 63)
		}
	}
}

// Gen returns the write generation: it advances on every write into a
// watched frame, every Load and every ImportState, so a translation
// memoized at one generation is known exact while Gen still returns it.
func (m *Memory) Gen() uint64 { return m.gen }

// Watched reports whether pa lies in a frame Watch marked, where a write
// advances the write generation; pa must be in range.
func (m *Memory) Watched(pa uint32) bool {
	f := pa >> frameShift
	return m.watch[f>>6]&(1<<(f&63)) != 0
}

// SetInjector installs an RDS fault sampler consulted once per read
// reference (nil removes it). See internal/fault.
func (m *Memory) SetInjector(sample func() bool) { m.inject = sample }

// TakeFault returns and clears the latched error syndrome. The latch
// holds the first error only; further errors while it is full are lost,
// as on the real controller.
func (m *Memory) TakeFault() (Fault, bool) {
	f, ok := m.fault, m.hasFault
	m.fault, m.hasFault = Fault{}, false
	return f, ok
}

func (m *Memory) latch(k FaultKind, pa uint32) {
	if !m.hasFault {
		m.fault = Fault{Kind: k, Addr: pa}
		m.hasFault = true
	}
}

// check validates an access; out-of-range references latch a fault and
// report false so the caller can complete the access benignly.
func (m *Memory) check(pa uint32, n int) bool {
	if uint64(pa)+uint64(n) > uint64(m.size) {
		m.latch(FaultRange, pa)
		return false
	}
	return true
}

// readCheck additionally samples the RDS injector on an in-range read.
// The simulated array still returns correct data — the error is in the
// (modelled) check bits, not the simulation's copy — so a logged-and-
// continued machine check leaves architectural state exact.
func (m *Memory) readCheck(pa uint32, n int) bool {
	if !m.check(pa, n) {
		return false
	}
	if m.inject != nil && m.inject() {
		m.latch(FaultRDS, pa)
	}
	return true
}

// Byte reads one byte at a physical address.
func (m *Memory) Byte(pa uint32) byte {
	if !m.readCheck(pa, 1) {
		return 0
	}
	return m.at(pa)
}

// Frame returns the 512-byte page frame (mmu.PageSize) holding pa as a
// slice of the live array: a later write into the frame shows through
// it at once. It is nil if the frame does not lie wholly inside the
// array, where every access must go through Byte and latch its range
// fault. Reading through a frame bypasses the RDS sampler; a reader
// accounts the bytes it hands out with Sampled. A frame in an absent
// chunk allocates the chunk, so the window aliases what later writes
// store.
func (m *Memory) Frame(pa uint32) []byte {
	if uint64(pa|(1<<frameShift-1)) >= uint64(m.size) {
		return nil
	}
	off := pa & chunkMask &^ (1<<frameShift - 1)
	return m.chunk(pa)[off : off+1<<frameShift : off+1<<frameShift]
}

// Sampled accounts n byte reads starting at pa, all inside the array,
// to the RDS sampler exactly as n calls of Byte would: one sample per
// byte, and a firing sample latches that byte's address. Without a
// sampler it is a nil check.
func (m *Memory) Sampled(pa uint32, n int) {
	if m.inject != nil {
		m.sampleBytes(pa, n)
	}
}

// Sampling reports whether an RDS sampler is attached (SetInjector).
func (m *Memory) Sampling() bool { return m.inject != nil }

func (m *Memory) sampleBytes(pa uint32, n int) {
	for i := range uint32(n) {
		if m.inject() {
			m.latch(FaultRDS, pa+i)
		}
	}
}

// ReadLong reads an aligned-agnostic longword at a physical address.
func (m *Memory) ReadLong(pa uint32) uint32 {
	if !m.readCheck(pa, 4) {
		return 0
	}
	if off := pa & chunkMask; off <= chunkSize-4 {
		c := m.chunks[pa>>chunkShift]
		if c == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(c[off : off+4])
	}
	return uint32(m.at(pa)) | uint32(m.at(pa+1))<<8 |
		uint32(m.at(pa+2))<<16 | uint32(m.at(pa+3))<<24
}

// SetByte writes one byte at a physical address.
func (m *Memory) SetByte(pa uint32, v byte) {
	if !m.check(pa, 1) {
		return
	}
	if m.Watched(pa) {
		m.gen++
	}
	m.chunk(pa)[pa&chunkMask] = v
}

// WriteLong writes a longword at a physical address.
func (m *Memory) WriteLong(pa uint32, v uint32) {
	if !m.check(pa, 4) {
		return
	}
	if m.Watched(pa) || m.Watched(pa+3) {
		m.gen++
	}
	if off := pa & chunkMask; off <= chunkSize-4 {
		binary.LittleEndian.PutUint32(m.chunk(pa)[off:off+4], v)
		return
	}
	for i := range uint32(4) {
		m.chunk(pa + i)[(pa+i)&chunkMask] = byte(v >> (8 * i))
	}
}

// Load copies a byte image into physical memory, a chunk at a time.
func (m *Memory) Load(pa uint32, b []byte) {
	if !m.check(pa, len(b)) {
		return
	}
	m.gen++
	for len(b) > 0 {
		n := copy(m.chunk(pa)[pa&chunkMask:], b)
		b = b[n:]
		pa += uint32(n)
	}
}

// Read copies n bytes out of physical memory, a chunk at a time.
func (m *Memory) Read(pa uint32, n int) []byte {
	out := make([]byte, n)
	if !m.readCheck(pa, n) {
		return out
	}
	for i := 0; i < n; {
		k := min(n-i, chunkSize-int(pa&chunkMask))
		if c := m.chunks[pa>>chunkShift]; c != nil {
			copy(out[i:i+k], c[pa&chunkMask:])
		}
		i += k
		pa += uint32(k)
	}
	return out
}
