package asm

import "encoding/binary"

// Sparse is an image reduced to what loading it needs: its origin, its
// length and its non-zero byte runs. Every byte of [Org, Org+Len) that
// no run covers is zero. A generated program is mostly its zeroed data
// region, so a Sparse keeps a few KB where the Image keeps ~132 KB; the
// program cache (internal/workload) holds Sparse images for that reason.
type Sparse struct {
	Org  uint32
	Len  uint32
	Runs []Run // ascending, disjoint
}

// Run is one stretch of an image holding non-zero bytes.
type Run struct {
	Off   uint32 // offset from the image origin
	Bytes []byte
}

// gapWords is the shortest stretch of zero 8-byte words that separates
// two runs: a shorter one stays inside a run, which costs less to load
// and to hold than a run header does.
const gapWords = 8

// Sparse returns the image's non-zero runs. It scans a word at a time;
// runs start and end on 8-byte boundaries (the last may end short, at
// the image's end) and share one backing array.
func (im *Image) Sparse() *Sparse {
	b := im.Bytes
	type span struct{ lo, hi int } // byte offsets, hi exclusive
	var spans []span
	for i := 0; i < len(b); i += 8 {
		if i+32 <= len(b) {
			w := b[i : i+32 : i+32]
			le := binary.LittleEndian
			if le.Uint64(w)|le.Uint64(w[8:])|le.Uint64(w[16:])|le.Uint64(w[24:]) == 0 {
				i += 24
				continue
			}
		}
		hi := min(i+8, len(b))
		if !nonZero(b[i:hi]) {
			continue
		}
		if k := len(spans) - 1; k >= 0 && i-spans[k].hi < 8*gapWords {
			spans[k].hi = hi
			continue
		}
		spans = append(spans, span{i, hi})
	}
	total := 0
	for _, s := range spans {
		total += s.hi - s.lo
	}
	sp := &Sparse{Org: im.Org, Len: uint32(len(b)), Runs: make([]Run, len(spans))}
	data := make([]byte, 0, total)
	for k, s := range spans {
		data = append(data, b[s.lo:s.hi]...)
		sp.Runs[k] = Run{Off: uint32(s.lo), Bytes: data[len(data)-(s.hi-s.lo) : len(data) : len(data)]}
	}
	return sp
}

// nonZero reports whether w, at most 8 bytes, holds a non-zero byte.
func nonZero(w []byte) bool {
	if len(w) == 8 {
		return binary.LittleEndian.Uint64(w) != 0
	}
	for _, x := range w {
		if x != 0 {
			return true
		}
	}
	return false
}
