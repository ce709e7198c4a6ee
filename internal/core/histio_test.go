package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strconv"
	"testing"

	"vax780/internal/ucode"
)

func testHist() *Histogram {
	h := &Histogram{}
	for i := 0; i < ucode.StoreSize; i += 97 {
		h.Counts[i] = uint64(i)*3 + 1
		h.Stalls[i] = uint64(i) * 2
	}
	h.markOverflow(42)
	return h
}

func TestHistogramSaveLoadRoundtrip(t *testing.T) {
	h := testHist()
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadHistogram(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadHistogram: %v", err)
	}
	if *got != *h {
		t.Fatalf("roundtrip changed the histogram")
	}
	if !got.OverflowedAt(42) {
		t.Fatalf("overflow mark lost in roundtrip")
	}
}

// TestHistogramCorruptionMatrix damages a saved histogram every way a
// disk or transport can — truncation at every eighth of the file, a
// padding byte, and a flipped byte in each region (header, body,
// trailer) — plus a bare gob stream, which carries no magic or checksum,
// and requires every case to fail with ErrCorruptHistogram and yield no
// histogram.
func TestHistogramCorruptionMatrix(t *testing.T) {
	var buf bytes.Buffer
	if err := testHist().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	data := buf.Bytes()

	mustCorrupt := func(name string, b []byte) {
		t.Helper()
		h, err := LoadHistogram(bytes.NewReader(b))
		if !errors.Is(err, ErrCorruptHistogram) {
			t.Errorf("%s: want ErrCorruptHistogram, got %v", name, err)
		}
		if h != nil {
			t.Errorf("%s: corrupt load returned a histogram", name)
		}
	}

	for i := 0; i <= 7; i++ {
		cut := len(data) * i / 8
		mustCorrupt("truncated to "+strconv.Itoa(cut)+" bytes", data[:cut])
	}
	mustCorrupt("one padding byte", append(append([]byte(nil), data...), 0))

	flip := func(off int) []byte {
		b := append([]byte(nil), data...)
		b[off] ^= 0x5a
		return b
	}
	for off := 0; off < histHeaderLen; off++ {
		mustCorrupt("header flip at "+strconv.Itoa(off), flip(off))
	}
	bodyLen := len(data) - histHeaderLen - histTrailerLen
	for off := histHeaderLen; off < histHeaderLen+bodyLen; off += bodyLen/32 + 1 {
		mustCorrupt("body flip at "+strconv.Itoa(off), flip(off))
	}
	for off := len(data) - histTrailerLen; off < len(data); off++ {
		mustCorrupt("trailer flip at "+strconv.Itoa(off), flip(off))
	}

	var gobBuf bytes.Buffer
	if err := gob.NewEncoder(&gobBuf).Encode(testHist()); err != nil {
		t.Fatalf("gob: %v", err)
	}
	mustCorrupt("bare gob stream", gobBuf.Bytes())
}
