package checkpoint

import (
	"bytes"
	"flag"
	"testing"
)

// FuzzCheckpointLoad feeds arbitrary bytes to the snapshot decoder. The
// contract: Decode never panics; it returns either an error or a
// snapshot, and a snapshot it returns re-encodes successfully (no
// half-valid states escape). Seeds cover the interesting neighborhoods:
// a pristine snapshot, truncations, and bit flips in each region.
//
// When an input reaches new coverage, the fuzzing engine minimizes it
// before fuzzing on: it drops bytes while the new coverage holds. Here
// coverage follows the input's length (the checksum's block loop, the
// length check's error text), so no shorter candidate keeps it and the
// minimizer tries all ~n²/2 of them. At the default budget of 60 s per
// input that search holds every worker for the rest of a short
// -fuzztime at 0 execs/sec, so minimization gets minimizeExecs
// candidates unless the command line sets -fuzzminimizetime.
func FuzzCheckpointLoad(f *testing.F) {
	const minimizeFlag, minimizeExecs = "test.fuzzminimizetime", "500x"
	chosen := false
	flag.Visit(func(fl *flag.Flag) { chosen = chosen || fl.Name == minimizeFlag })
	if !chosen {
		if err := flag.Set(minimizeFlag, minimizeExecs); err != nil {
			f.Fatalf("bounding minimization: %v", err)
		}
	}

	var buf bytes.Buffer
	if err := Encode(&buf, testSnapshot(42_000)); err != nil {
		f.Fatalf("Encode: %v", err)
	}
	valid := buf.Bytes()

	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:headerLen])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	for _, off := range []int{0, 8, 12, headerLen + 5, len(valid) - 1} {
		b := append([]byte(nil), valid...)
		b[off] ^= 0xff
		f.Add(b)
	}
	f.Add(append(append([]byte(nil), valid...), 0xba))
	f.Add([]byte("VAX780CP but then garbage follows the magic number here"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			if s != nil {
				t.Fatalf("Decode returned both a snapshot and error %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := Encode(&out, s); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
	})
}
