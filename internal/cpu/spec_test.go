package cpu

import (
	"testing"

	"vax780/internal/vax"
)

// TestDecodeSpecMatchesReference checks the table decode against
// vax.DecodeSpecifier for every mode byte, alone and after each of the
// 256 possible first bytes, for every data type: the length runSpecifier
// takes from the table is the reference's byte count, the specifiers are
// equal, and the table decode faults exactly where the reference errs.
func TestDecodeSpecMatchesReference(t *testing.T) {
	// Trailing bytes with their sign bits set exercise sign extension.
	tail := []byte{0x81, 0x92, 0xA3, 0xB4, 0xC5, 0xD6, 0xE7, 0xF8, 0x89}
	for dt := vax.TypeNone; dt <= vax.TypeFloatD; dt++ {
		for first := -1; first < 256; first++ {
			for mb := 0; mb < 256; mb++ {
				var buf []byte
				if first >= 0 {
					buf = append(buf, byte(first))
				}
				buf = append(append(buf, byte(mb)), tail...)
				prefix := 0
				if buf[0]>>4 == 4 {
					prefix = 1
				}
				total := prefix + int(specModes[buf[prefix]].size[dt])
				var got vax.Specifier
				ok := decodeSpec(&got, buf[:total])
				want, n, err := vax.DecodeSpecifier(buf, dt)
				switch {
				case ok != (err == nil):
					t.Fatalf("% x (%v): table ok=%v, reference err=%v", buf[:total], dt, ok, err)
				case ok && (got != want || n != total):
					t.Fatalf("% x (%v): table %+v in %d bytes, reference %+v in %d", buf[:total], dt, got, total, want, n)
				}
			}
		}
	}
}

// BenchmarkRunSpecifier times runSpecifier on one read-access specifier
// per addressing mode and data size, decoded from the frame window with
// every specifier byte already in the IB and the data in the cache.
func BenchmarkRunSpecifier(b *testing.B) {
	const (
		codeVA = 0x1000
		dataVA = 0x2000
		ptrVA  = 0x3000
	)
	modes := []struct {
		name string
		spec vax.Specifier
	}{
		{"literal", vax.Specifier{Mode: vax.ModeLiteral, Disp: 5}},
		{"register", vax.Specifier{Mode: vax.ModeRegister, Base: vax.R2}},
		{"regdef", vax.Specifier{Mode: vax.ModeRegDeferred, Base: vax.R1}},
		{"autodec", vax.Specifier{Mode: vax.ModeAutoDec, Base: vax.R1}},
		{"autoinc", vax.Specifier{Mode: vax.ModeAutoInc, Base: vax.R1}},
		{"autoincdef", vax.Specifier{Mode: vax.ModeAutoIncDef, Base: vax.R1}},
		{"immediate", vax.Specifier{Mode: vax.ModeImmediate, Imm: 0x0102030405060708}},
		{"absolute", vax.Specifier{Mode: vax.ModeAbsolute, Imm: ptrVA}},
		{"bdisp", vax.Specifier{Mode: vax.ModeByteDisp, Base: vax.R1, Disp: 16}},
		{"bdispdef", vax.Specifier{Mode: vax.ModeByteDispDef, Base: vax.R1, Disp: 16}},
		{"wdisp", vax.Specifier{Mode: vax.ModeWordDisp, Base: vax.R1, Disp: 16}},
		{"wdispdef", vax.Specifier{Mode: vax.ModeWordDispDef, Base: vax.R1, Disp: 16}},
		{"ldisp", vax.Specifier{Mode: vax.ModeLongDisp, Base: vax.R1, Disp: 16}},
		{"ldispdef", vax.Specifier{Mode: vax.ModeLongDispDef, Base: vax.R1, Disp: 16}},
		{"indexed", vax.Specifier{Mode: vax.ModeByteDisp, Base: vax.R1, Disp: 16, Indexed: true, Index: vax.R3}},
	}
	types := []struct {
		name string
		t    vax.DataType
	}{{"b", vax.TypeByte}, {"w", vax.TypeWord}, {"l", vax.TypeLong}, {"q", vax.TypeQuad}}
	for _, md := range modes {
		for _, ty := range types {
			b.Run(md.name+"/"+ty.name, func(b *testing.B) {
				code, err := vax.EncodeSpecifier(nil, md.spec, ty.t)
				if err != nil {
					b.Fatal(err)
				}
				m := New(Config{MemBytes: 1 << 20})
				m.Mem.Load(codeVA, code)
				// Deferred modes find a pointer to ptrVA wherever they look.
				for _, pa := range []uint32{dataVA, dataVA + 16} {
					m.Mem.WriteLong(pa, ptrVA)
				}
				os := vax.OperandSpec{Access: vax.AccessRead, Type: ty.t}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.R[vax.R1], m.R[vax.R3] = dataVA, 1
					m.ib.ptr, m.ib.valid, m.ib.fillPending = codeVA, ibSize, false
					m.runSpecifier(0, os)
				}
				b.StopTimer()
				if m.runErr != nil || m.ib.ptr != codeVA+uint32(len(code)) {
					b.Fatalf("specifier %x: err %v, pc %#x", code, m.runErr, m.ib.ptr)
				}
			})
		}
	}
}
