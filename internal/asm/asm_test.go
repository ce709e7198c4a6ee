package asm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vax780/internal/vax"
)

func TestBuilderSimpleProgram(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Label("start")
	b.Op("MOVL", Lit(5), R(vax.R0))
	b.Label("loop")
	b.Br("SOBGTR", "loop", R(vax.R0))
	b.Op("HALT")
	im, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if im.MustAddr("start") != 0x1000 {
		t.Errorf("start = %#x, want 0x1000", im.MustAddr("start"))
	}
	// MOVL S^#5, R0 = D0 05 50 (3 bytes); loop at 0x1003.
	if im.MustAddr("loop") != 0x1003 {
		t.Errorf("loop = %#x, want 0x1003", im.MustAddr("loop"))
	}
	// SOBGTR R0, loop = F5 50 <disp>; disp relative to 0x1006 -> -3.
	want := []byte{0xD0, 0x05, 0x50, 0xF5, 0x50, 0xFD, 0x00}
	if len(im.Bytes) != len(want) {
		t.Fatalf("image = % x, want % x", im.Bytes, want)
	}
	for i := range want {
		if im.Bytes[i] != want[i] {
			t.Fatalf("image[%d] = %#02x, want %#02x (image % x)", i, im.Bytes[i], want[i], im.Bytes)
		}
	}
}

func TestBuilderForwardReference(t *testing.T) {
	b := NewBuilder(0)
	b.Br("BRB", "fwd")
	b.Op("NOP")
	b.Op("NOP")
	b.Label("fwd")
	b.Op("HALT")
	im, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// BRB disp relative to address 2; fwd at 4 -> disp 2.
	if im.Bytes[1] != 2 {
		t.Errorf("BRB displacement = %d, want 2", int8(im.Bytes[1]))
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder(0)
	b.Br("BRB", "nowhere")
	if _, err := b.Finish(); err == nil {
		t.Error("undefined label should fail")
	}
}

func TestBuilderByteRangeError(t *testing.T) {
	b := NewBuilder(0)
	b.Br("BRB", "far")
	b.Space(200)
	b.Label("far")
	if _, err := b.Finish(); err == nil {
		t.Error("byte displacement of +198 should fail")
	}
}

func TestBuilderCaseTable(t *testing.T) {
	b := NewBuilder(0x100)
	b.Case("CASEL", R(vax.R0), Lit(0), Lit(2), "c0", "c1", "c2")
	b.Label("c0")
	b.Op("NOP")
	b.Label("c1")
	b.Op("NOP")
	b.Label("c2")
	b.Op("HALT")
	im, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// CASEL R0,S^#0,S^#2 = CF 50 00 02 then 3 word displacements from table
	// base 0x104; c0 = 0x10A -> 6, c1 -> 7, c2 -> 8.
	tab := im.Bytes[4:]
	wants := []int16{6, 7, 8}
	for i, w := range wants {
		got := int16(uint16(tab[2*i]) | uint16(tab[2*i+1])<<8)
		if got != w {
			t.Errorf("case entry %d = %d, want %d", i, got, w)
		}
	}
}

func TestTextAssembler(t *testing.T) {
	src := `
; a tiny program
start:	MOVL	#10, R0
	CLRL	R1
loop:	ADDL2	R0, R1
	SOBGTR	R0, loop
	MOVL	R1, @#0x2000
	HALT
data:	.long	0xdeadbeef, start
	.word	7
	.byte	1, 2, 3
	.ascii	"ok"
	.align	4
end:
`
	im, err := Assemble(0x400, src)
	if err != nil {
		t.Fatal(err)
	}
	if im.MustAddr("start") != 0x400 {
		t.Errorf("start = %#x", im.MustAddr("start"))
	}
	if im.MustAddr("end")%4 != 0 {
		t.Errorf("end %#x not aligned", im.MustAddr("end"))
	}
	// .long start must hold 0x400.
	d := im.MustAddr("data") - im.Org
	got := uint32(im.Bytes[d+4]) | uint32(im.Bytes[d+5])<<8 | uint32(im.Bytes[d+6])<<16 | uint32(im.Bytes[d+7])<<24
	if got != 0x400 {
		t.Errorf(".long start = %#x, want 0x400", got)
	}
	// Round trip: the code region must disassemble.
	text, n, err := DisasmOne(im.Bytes, im.Org, 0)
	if err != nil || n == 0 {
		t.Fatalf("disasm: %v", err)
	}
	if !strings.HasPrefix(text, "MOVL") {
		t.Errorf("disasm = %q", text)
	}
}

func TestTextOperandForms(t *testing.T) {
	src := `
top:	MOVL	(R1), R2
	MOVL	(R1)+, R2
	MOVL	-(R1), R2
	MOVL	@(R1)+, R2
	MOVL	8(R3), R2
	MOVL	B^8(R3), R2
	MOVL	W^300(R3), R2
	MOVL	L^70000(R3), R2
	MOVL	@12(FP), R2
	MOVL	4(R5)[R6], R2
	MOVL	I^#100, R2
	MOVL	S^#3, R2
	MOVL	#200, R2
	MOVL	@#0x8000, R2
	JSB	top
	HALT
`
	im, err := Assemble(0x1000, src)
	if err != nil {
		t.Fatal(err)
	}
	// Every statement must disassemble cleanly until HALT.
	off := uint32(0)
	count := 0
	for off < uint32(len(im.Bytes)) {
		_, n, err := DisasmOne(im.Bytes, im.Org, off)
		if err != nil {
			t.Fatalf("disasm at +%#x: %v", off, err)
		}
		off += uint32(n)
		count++
	}
	if count != 16 {
		t.Errorf("decoded %d instructions, want 16", count)
	}
}

func TestTextErrors(t *testing.T) {
	bad := []string{
		"FROB R1",            // unknown mnemonic
		"MOVL R1",            // operand count
		"MOVL R1, R2, R3",    // operand count
		"MOVL #zork, R1",     // bad integer
		"MOVL (R99), R1",     // bad register
		".weird 1",           // unknown directive
		"BRB",                // missing target
		"MOVL label[R1], R0", // indexed label
	}
	for _, src := range bad {
		if _, err := Assemble(0, src); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestListingContainsLabels(t *testing.T) {
	im, err := Assemble(0, "a: NOP\nb: HALT\n")
	if err != nil {
		t.Fatal(err)
	}
	l := Listing(im)
	if !strings.Contains(l, "a:") || !strings.Contains(l, "b:") || !strings.Contains(l, "NOP") {
		t.Errorf("listing missing pieces:\n%s", l)
	}
}

func TestImmediateVsLiteralSelection(t *testing.T) {
	// #n with a write-access operand must not become a short literal.
	im, err := Assemble(0, "MOVL #5, R0\nCLRL R1\n")
	if err != nil {
		t.Fatal(err)
	}
	if im.Bytes[1] != 0x05 {
		t.Errorf("read access #5 should be short literal, got %#02x", im.Bytes[1])
	}
	in, err := vax.Decode(im.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if in.Specs[0].Mode != vax.ModeLiteral {
		t.Errorf("mode = %v, want literal", in.Specs[0].Mode)
	}
}

func TestSymbolExpressions(t *testing.T) {
	im, err := Assemble(0x1000, `
	MOVAL	tbl+8, R1	; PC-relative label+offset
	MOVL	@#tbl+4, R2	; absolute label+offset
	HALT
tbl:	.long	10, 20, 30
ptr:	.long	tbl+8, tbl-4
`)
	if err != nil {
		t.Fatal(err)
	}
	m := mustRunAsm(t, im)
	tbl := im.MustAddr("tbl")
	if m.regs[1] != tbl+8 {
		t.Errorf("R1 = %#x, want tbl+8 = %#x", m.regs[1], tbl+8)
	}
	if m.regs[2] != 20 {
		t.Errorf("R2 = %d, want 20 (tbl[1])", m.regs[2])
	}
	p := im.MustAddr("ptr") - im.Org
	got := uint32(im.Bytes[p]) | uint32(im.Bytes[p+1])<<8 | uint32(im.Bytes[p+2])<<16 | uint32(im.Bytes[p+3])<<24
	if got != tbl+8 {
		t.Errorf(".long tbl+8 = %#x, want %#x", got, tbl+8)
	}
	got2 := uint32(im.Bytes[p+4]) | uint32(im.Bytes[p+5])<<8 | uint32(im.Bytes[p+6])<<16 | uint32(im.Bytes[p+7])<<24
	if got2 != tbl-4 {
		t.Errorf(".long tbl-4 = %#x, want %#x", got2, tbl-4)
	}
}

// mustRunAsm is a tiny interpreter-free check: the asm package cannot
// import cpu (the dependency points the other way), so we decode the two
// MOVALs/MOVLs ourselves via the disassembler to validate the fixups, and
// return the addresses the operands resolve to.
type asmProbe struct{ regs [16]uint32 }

func mustRunAsm(t *testing.T, im *Image) *asmProbe {
	t.Helper()
	p := &asmProbe{}
	// Instruction 1: MOVAL L^disp(PC), R1 -> effective = pc-after + disp.
	in, err := vax.Decode(im.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if in.Specs[0].Mode != vax.ModeLongDisp || in.Specs[0].Base != vax.PC {
		t.Fatalf("first operand not PC-relative: %+v", in.Specs[0])
	}
	// The displacement is relative to the address after the specifier,
	// which is the last byte of the instruction minus the R1 specifier.
	pcAfter := im.Org + uint32(in.Size) - 1 // one byte for the R1 specifier
	p.regs[1] = pcAfter + uint32(in.Specs[0].Disp)
	// Instruction 2: MOVL @#addr, R2.
	in2, err := vax.Decode(im.Bytes[in.Size:])
	if err != nil {
		t.Fatal(err)
	}
	if in2.Specs[0].Mode != vax.ModeAbsolute {
		t.Fatalf("second operand not absolute: %+v", in2.Specs[0])
	}
	addr := uint32(in2.Specs[0].Imm)
	off := addr - im.Org
	p.regs[2] = uint32(im.Bytes[off]) | uint32(im.Bytes[off+1])<<8 |
		uint32(im.Bytes[off+2])<<16 | uint32(im.Bytes[off+3])<<24
	return p
}

func TestOrgBackwardFails(t *testing.T) {
	if _, err := Assemble(0x1000, ".space 64\n.org 0x1010\n"); err == nil {
		t.Error(".org behind the current address should fail")
	}
}

// TestSparseMatchesImage: a Sparse image expands back to the image's
// bytes, its runs are ordered and disjoint and hold every non-zero byte,
// and a gap of gapWords zero words or more separates two runs.
func TestSparseMatchesImage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"zeros":     make([]byte, 1000),
		"tail":      append(make([]byte, 1001), 7),
		"head":      append([]byte{1}, make([]byte, 300)...),
		"short gap": append(append([]byte{1}, make([]byte, 8*gapWords-9)...), 2),
		"long gap":  append(append([]byte{1}, make([]byte, 8*gapWords+7)...), 2),
	}
	rng := rand.New(rand.NewSource(1))
	for k := range 20 {
		b := make([]byte, rng.Intn(4000))
		for range rng.Intn(30) {
			if len(b) > 0 {
				b[rng.Intn(len(b))] = byte(rng.Intn(255) + 1)
			}
		}
		cases[fmt.Sprintf("random %d", k)] = b
	}
	for name, b := range cases {
		im := &Image{Org: 0x200, Bytes: b}
		sp := im.Sparse()
		if sp.Org != im.Org || sp.Len != uint32(len(b)) {
			t.Errorf("%s: org %#x len %d, want %#x %d", name, sp.Org, sp.Len, im.Org, len(b))
		}
		got := make([]byte, sp.Len)
		end := uint32(0)
		for i, r := range sp.Runs {
			if i > 0 && r.Off < end+8*gapWords {
				t.Errorf("%s: run %d at %d follows a run ending at %d", name, i, r.Off, end)
			}
			copy(got[r.Off:], r.Bytes)
			end = r.Off + uint32(len(r.Bytes))
		}
		if !bytes.Equal(got, b) && !(len(b) == 0 && len(got) == 0) {
			t.Errorf("%s: expanded runs differ from the image", name)
		}
	}
	if sp := (&Image{Bytes: cases["short gap"]}).Sparse(); len(sp.Runs) != 1 {
		t.Errorf("short gap: %d runs, want 1", len(sp.Runs))
	}
	if sp := (&Image{Bytes: cases["long gap"]}).Sparse(); len(sp.Runs) != 2 {
		t.Errorf("long gap: %d runs, want 2", len(sp.Runs))
	}
}
