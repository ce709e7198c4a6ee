package cpu_test

import (
	"bytes"
	"testing"

	"vax780/internal/cpu"
	"vax780/internal/workload"
)

// TestFunctionalTranslationDifferential steps each of the five workload
// profiles, booted under vmos, on two machines in lockstep: one with the
// functional path as it runs (page runs and the translation memo), one
// translating every byte with mmu.Translate and decoding without the
// frame window. Every diffEvery instructions the registers, PSL, cycle
// count, I-Fetch counters, physical memory and histogram must be
// identical.
func TestFunctionalTranslationDifferential(t *testing.T) {
	const (
		instructions = 150_000
		diffEvery    = 5_000
	)
	for _, p := range workload.All() {
		t.Run(p.Name, func(t *testing.T) {
			fast, err := workload.Prepare(p, 10_000_000, cpu.Config{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := workload.Prepare(p, 10_000_000, cpu.Config{})
			if err != nil {
				t.Fatal(err)
			}
			cpu.SetReferenceTranslation(ref.Machine(), true)
			for done := 0; done < instructions; done += diffEvery {
				for _, s := range []*workload.Session{fast, ref} {
					step(s.Machine(), diffEvery)
				}
				f, r := fast.Machine(), ref.Machine()
				if err := f.Err(); err != nil {
					t.Fatalf("after %d instructions: %v", done+diffEvery, err)
				}
				if f.R != r.R || f.PSL != r.PSL || f.Cycle() != r.Cycle() || f.Err() != r.Err() {
					t.Fatalf("after %d instructions: fast R=%x PSL=%#x cycle=%d, reference R=%x PSL=%#x cycle=%d",
						done+diffEvery, f.R, f.PSL, f.Cycle(), r.R, r.PSL, r.Cycle())
				}
				if f.IBStats() != r.IBStats() {
					t.Fatalf("after %d instructions: I-Fetch counters %+v, reference %+v", done+diffEvery, f.IBStats(), r.IBStats())
				}
				if size := int(f.Mem.Size()); !bytes.Equal(f.Mem.Read(0, size), r.Mem.Read(0, size)) {
					t.Fatalf("after %d instructions: physical memory differs", done+diffEvery)
				}
				if !bytes.Equal(save(t, fast), save(t, ref)) {
					t.Fatalf("after %d instructions: histograms differ", done+diffEvery)
				}
			}
		})
	}
}

// step runs n instructions with the OS hook between them, as RunCtx does.
func step(m *cpu.Machine, n int) {
	for i := 0; i < n; i++ {
		m.StepInstruction()
		if m.OnInstruction != nil {
			m.OnInstruction(m)
		}
	}
}

func save(t *testing.T, s *workload.Session) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.Result().Hist.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
