// Package vax describes the VAX architecture as seen by the VAX-11/780
// implementation modelled in this repository: opcodes and their grouping
// (per Table 1 of Emer & Clark, ISCA 1984), operand specifier addressing
// modes, data types, access types and instruction encoding.
//
// The package is purely descriptive: it contains no execution semantics.
// Execution lives in the microcode (internal/ucode, internal/ebox), as it
// did on the real machine.
package vax

import "fmt"

// DataType is the data type of an operand, defined by the instruction that
// uses the operand specifier (the specifier itself does not encode a type).
type DataType uint8

const (
	TypeNone DataType = iota
	TypeByte
	TypeWord
	TypeLong
	TypeQuad
	TypeFloatF // 4-byte F_floating
	TypeFloatD // 8-byte D_floating
)

// Size returns the operand size in bytes.
func (t DataType) Size() int {
	switch t {
	case TypeByte:
		return 1
	case TypeWord:
		return 2
	case TypeLong, TypeFloatF:
		return 4
	case TypeQuad, TypeFloatD:
		return 8
	}
	return 0
}

func (t DataType) String() string {
	switch t {
	case TypeNone:
		return "none"
	case TypeByte:
		return "byte"
	case TypeWord:
		return "word"
	case TypeLong:
		return "long"
	case TypeQuad:
		return "quad"
	case TypeFloatF:
		return "f_float"
	case TypeFloatD:
		return "d_float"
	}
	return fmt.Sprintf("DataType(%d)", uint8(t))
}

// AccessType is how an instruction accesses an operand: the VAX
// architecture reference distinguishes read, write, modify, address and
// (bit-)field accesses. Branch displacements are not operand specifiers
// and are described separately by OpInfo.BranchDisp.
type AccessType uint8

const (
	AccessNone   AccessType = iota
	AccessRead              // operand value is read
	AccessWrite             // operand location is written
	AccessModify            // operand is read then written
	AccessAddr              // address of the operand is computed (no data access)
	AccessField             // base of a variable bit field (address-like; data access in execute phase)
)

func (a AccessType) String() string {
	switch a {
	case AccessNone:
		return "none"
	case AccessRead:
		return "r"
	case AccessWrite:
		return "w"
	case AccessModify:
		return "m"
	case AccessAddr:
		return "a"
	case AccessField:
		return "v"
	}
	return fmt.Sprintf("AccessType(%d)", uint8(a))
}

// OperandSpec describes one operand specifier position of an instruction.
type OperandSpec struct {
	Access AccessType
	Type   DataType
}

func (o OperandSpec) String() string { return o.Access.String() + o.Type.String()[:1] }

// Reg is a general register number. R12..R15 have architectural roles.
type Reg uint8

const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	AP // R12: argument pointer
	FP // R13: frame pointer
	SP // R14: stack pointer
	PC // R15: program counter
)

func (r Reg) String() string {
	switch r {
	case AP:
		return "AP"
	case FP:
		return "FP"
	case SP:
		return "SP"
	case PC:
		return "PC"
	}
	return fmt.Sprintf("R%d", uint8(r))
}

// PSL condition code and state bits (subset of the VAX processor status
// longword used by this model).
const (
	PSLC uint32 = 1 << 0 // carry
	PSLV uint32 = 1 << 1 // overflow
	PSLZ uint32 = 1 << 2 // zero
	PSLN uint32 = 1 << 3 // negative

	PSLIS   uint32 = 1 << 26 // interrupt stack
	PSLCurK uint32 = 0 << 24 // current mode kernel (bits 25:24 == 0)
	PSLCurU uint32 = 3 << 24 // current mode user

	PSLIPLShift = 16
	PSLIPLMask  = 0x1F << PSLIPLShift
)

// IPL returns the interrupt priority level field of a PSL value.
func IPL(psl uint32) uint8 { return uint8((psl & PSLIPLMask) >> PSLIPLShift) }

// WithIPL returns psl with its interrupt priority level replaced.
func WithIPL(psl uint32, ipl uint8) uint32 {
	return (psl &^ PSLIPLMask) | (uint32(ipl)<<PSLIPLShift)&PSLIPLMask
}
