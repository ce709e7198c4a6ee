package workload

import (
	"reflect"
	"testing"
	"unsafe"

	"vax780/internal/asm"
	"vax780/internal/cpu"
)

// TestGenerateSharedMatchesFresh pins the cache's only safety argument:
// the shared program is the non-zero runs of a fresh generation of the
// same configuration, and repeat lookups return the same entry rather
// than regenerating.
func TestGenerateSharedMatchesFresh(t *testing.T) {
	cfg := GenConfig{Mix: Mix{ALU: 1, Branchy: 0.5, Call: 0.25}, Blocks: 24, Seed: 42}

	cached, err := generateShared(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached, fresh.Sparse()) {
		t.Fatalf("cached program differs from a fresh generation: org %#x vs %#x, %d vs %d bytes",
			cached.Org, fresh.Org, cached.Len, len(fresh.Bytes))
	}
	again, err := generateShared(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != cached {
		t.Error("second generateShared regenerated instead of sharing")
	}

	// A different seed must miss the cache and produce a different program.
	other := cfg
	other.Seed = 43
	sp, err := generateShared(other)
	if err != nil {
		t.Fatal(err)
	}
	if sp == cached || reflect.DeepEqual(sp, cached) {
		t.Error("distinct configurations share one program")
	}
}

// genEntryBound is the most one cache entry may hold, runs and headers
// together; a full generated image is ~132 KB.
const genEntryBound = 8 << 10

// TestGenCacheEntriesSmall bounds the bytes each profile's cache entries
// hold, so a full cache stays tens of MB.
func TestGenCacheEntriesSmall(t *testing.T) {
	for _, p := range All() {
		for i := range p.Procs {
			sp, err := generateShared(p.program(i))
			if err != nil {
				t.Fatal(err)
			}
			n := int(unsafe.Sizeof(*sp)) + len(sp.Runs)*int(unsafe.Sizeof(asm.Run{}))
			for _, r := range sp.Runs {
				n += len(r.Bytes)
			}
			if n > genEntryBound {
				t.Errorf("%s process %d: cache entry holds %d bytes (%d runs) of a %d-byte image, bound %d",
					p.Name, i, n, len(sp.Runs), sp.Len, genEntryBound)
			}
			t.Logf("%s process %d: %d bytes in %d runs of a %d-byte image", p.Name, i, n, len(sp.Runs), sp.Len)
		}
	}
}

// TestSparseLoadMatchesFullImage: for every profile, a session prepared
// from the cache's non-zero runs holds the same memory, by ExportState,
// as one prepared from the full generated images. The full load goes
// through the same build path, with each cache entry replaced by one run
// covering the whole image.
func TestSparseLoadMatchesFullImage(t *testing.T) {
	for _, p := range All() {
		s, err := Prepare(p, 1_000_000, cpu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sparse := s.Machine().Mem.ExportState()

		genCache.Lock()
		saved := genCache.byConfig
		genCache.byConfig = make(map[GenConfig]*asm.Sparse)
		genCache.Unlock()
		for i := range p.Procs {
			im, err := Generate(p.program(i))
			if err != nil {
				t.Fatal(err)
			}
			genCache.byConfig[p.program(i)] = &asm.Sparse{Org: im.Org, Len: uint32(len(im.Bytes)),
				Runs: []asm.Run{{Bytes: im.Bytes}}}
		}
		s, err = Prepare(p, 1_000_000, cpu.Config{})
		genCache.Lock()
		genCache.byConfig = saved
		genCache.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if full := s.Machine().Mem.ExportState(); !reflect.DeepEqual(sparse, full) {
			t.Errorf("%s: memory from sparse programs differs from full images (%d vs %d frames)",
				p.Name, len(sparse.Frames), len(full.Frames))
		}
	}
}

// benchSeed shifts every BenchmarkPrepare iteration's seeds, across b.N
// rounds too, so each one generates its programs afresh.
var benchSeed int64

// BenchmarkPrepare measures the set-up of one measurement session per
// profile: generating and compacting its programs, building the machine
// and booting it. No program comes from the cache, as in a fleet sweep
// over distinct instances.
func BenchmarkPrepare(b *testing.B) {
	for _, p := range All() {
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				benchSeed++
				q := p
				q.Seed += benchSeed * 1_000_003
				if _, err := Prepare(q, 1_000_000, cpu.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
