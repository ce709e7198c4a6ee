package cpu

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vax780/internal/mmu"
)

// FuzzIStreamDifferential loads the fuzzed bytes as kernel code that
// straddles the boundary between P0 pages 2 and 3, whose frames are
// apart, with memory management on. It steps a machine that decodes from
// the frame window and one that translates every I-stream byte with
// mmu.Translate, and requires them to agree on all state. split picks
// how many of the bytes lie before the boundary. The seeds are the
// instruction decoder's corpus, each at three splits.
func FuzzIStreamDifferential(f *testing.F) {
	corpus, err := filepath.Glob("../vax/testdata/fuzz/FuzzDecode/*")
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no FuzzDecode corpus to seed from (%v)", err)
	}
	for _, name := range corpus {
		code := readCorpusBytes(f, name)
		for _, split := range []int{0, len(code) / 2, len(code)} {
			f.Add(code, uint8(split))
		}
	}
	f.Fuzz(func(t *testing.T, code []byte, split uint8) {
		const maxCode, maxSteps = 64, 8
		if len(code) > maxCode {
			code = code[:maxCode]
		}
		va := uint32(3*mmu.PageSize - int(split)%(len(code)+1))
		fast, ref := newMemoMachine(false), newMemoMachine(true)
		for _, m := range []*Machine{fast, ref} {
			place(t, m, va, code...)
			startKernel(m, va)
			steps(m, maxSteps)
		}
		requireSameMachine(t, fast, ref)
	})
}

// readCorpusBytes parses a one-argument []byte file of the native fuzz
// corpus format.
func readCorpusBytes(f *testing.F, name string) []byte {
	f.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		f.Fatalf("%s: not a one-value fuzz corpus file", name)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if !ok || !ok2 {
		f.Fatalf("%s: value is not a []byte", name)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		f.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}
