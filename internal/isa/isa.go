// Package isa defines the COBRA very long instruction word format.
//
// COBRA operates via an 80-bit VLIW microcode word (§3.3 of the paper). The
// instruction word comprises the operation code, slice address, element
// address, LUT address and configuration data fields. This package defines
// the bit-level layout, the opcode set, and the per-element control-word
// encodings used in the configuration data field, together with pack/unpack
// routines that are exact inverses of each other.
//
// Bit layout (bit 79 is the most significant bit):
//
//	[79:75] opcode          (5 bits)
//	[74:63] slice address  (12 bits: scope(2) | row(8) | col(2))
//	[62:59] element address (4 bits)
//	[58:50] LUT address     (9 bits)
//	[49: 0] configuration data (50 bits)
package isa

import "fmt"

// Word is one packed 80-bit COBRA instruction. Hi holds bits 79..64, Lo
// holds bits 63..0.
type Word struct {
	Hi uint16
	Lo uint64
}

// Opcode identifies the instruction class (§3.3).
type Opcode uint8

const (
	// OpNop performs no operation. Underfull instruction cycles are padded
	// with NOPs (§3.4).
	OpNop Opcode = iota
	// OpCfgElem writes one element's control word within the addressed
	// RCE(s). The element address selects the component; the configuration
	// data field carries its control word.
	OpCfgElem
	// OpEnOut enables RCE outputs. With scope ScopeAll it re-enables the
	// global datapath after a reconfiguration sequence.
	OpEnOut
	// OpDisOut disables RCE outputs. With scope ScopeAll it freezes the
	// datapath so an overfull reconfiguration can complete (§3.4).
	OpDisOut
	// OpLoadLUT loads a group of entries into one of the addressed RCE's C
	// element look-up tables (or the F element constants when the LUT
	// address selects the F bank).
	OpLoadLUT
	// OpCfgShuf configures one half of a byte shuffler's 16-byte
	// permutation. The slice row field selects the shuffler.
	OpCfgShuf
	// OpCfgInMux configures the feedback/input multiplexor at the top of
	// the array (external input, feedback, or eRAM playback).
	OpCfgInMux
	// OpCfgWhite configures one column's whitening register: mode
	// (off/XOR/add mod 2^32) and key word.
	OpCfgWhite
	// OpERAMWrite writes one 32-bit word into an embedded RAM. This is the
	// path the key-scheduling phase uses to install round keys.
	OpERAMWrite
	// OpCfgCapture configures a column's eRAM capture port: when enabled,
	// each advancing datapath cycle stores the column's output word to the
	// selected bank at an auto-incrementing address (intermediate-value
	// storage, §3.1).
	OpCfgCapture
	// OpCtlFlag sets and clears bits of the flag register. Setting
	// FlagReady while the go signal is inactive halts the machine at the
	// idle point until the external system raises go (§3.4).
	OpCtlFlag
	// OpJmp jumps to the iRAM address in the configuration data field.
	OpJmp
	// OpHalt stops the sequencer (end of a terminating program, e.g. a
	// key-schedule-only run).
	OpHalt
	opcodeCount
)

var opcodeNames = [...]string{
	OpNop:        "NOP",
	OpCfgElem:    "CFGE",
	OpEnOut:      "ENOUT",
	OpDisOut:     "DISOUT",
	OpLoadLUT:    "LUTLD",
	OpCfgShuf:    "SHUF",
	OpCfgInMux:   "INMUX",
	OpCfgWhite:   "WHITE",
	OpERAMWrite:  "ERAMW",
	OpCfgCapture: "CAPCFG",
	OpCtlFlag:    "FLAG",
	OpJmp:        "JMP",
	OpHalt:       "HALT",
}

// String returns the assembler mnemonic for the opcode.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Opcode) Valid() bool { return o < opcodeCount }

// Scope selects how many RCEs a slice address targets.
type Scope uint8

const (
	// ScopeOne targets the single RCE at (row, col).
	ScopeOne Scope = iota
	// ScopeCol targets every RCE in the column; the row field is ignored.
	ScopeCol
	// ScopeRow targets every RCE in the row; the col field is ignored.
	ScopeRow
	// ScopeAll targets every RCE in the array.
	ScopeAll
)

// String names the scope for diagnostics and disassembly.
func (s Scope) String() string {
	switch s {
	case ScopeOne:
		return "one"
	case ScopeCol:
		return "col"
	case ScopeRow:
		return "row"
	case ScopeAll:
		return "all"
	}
	return "?"
}

// Slice is a decoded slice address: which RCE(s) an instruction configures.
type Slice struct {
	Scope Scope
	Row   uint8 // 0..255
	Col   uint8 // 0..3
}

// SliceAt addresses the single RCE at (row, col).
func SliceAt(row, col int) Slice {
	return Slice{Scope: ScopeOne, Row: uint8(row), Col: uint8(col)}
}

// SliceCol addresses every RCE in col.
func SliceCol(col int) Slice { return Slice{Scope: ScopeCol, Col: uint8(col)} }

// SliceRow addresses every RCE in row.
func SliceRow(row int) Slice { return Slice{Scope: ScopeRow, Row: uint8(row)} }

// SliceAll addresses the whole array.
func SliceAll() Slice { return Slice{Scope: ScopeAll} }

// String renders the slice in assembler syntax.
func (s Slice) String() string {
	switch s.Scope {
	case ScopeOne:
		return fmt.Sprintf("r%d.c%d", s.Row, s.Col)
	case ScopeCol:
		return fmt.Sprintf("c%d", s.Col)
	case ScopeRow:
		return fmt.Sprintf("r%d", s.Row)
	default:
		return "all"
	}
}

// pack returns the 12-bit slice address field.
func (s Slice) pack() uint16 {
	return uint16(s.Scope&3)<<10 | uint16(s.Row)<<2 | uint16(s.Col&3)
}

func unpackSlice(v uint16) Slice {
	return Slice{
		Scope: Scope(v >> 10 & 3),
		Row:   uint8(v >> 2),
		Col:   uint8(v & 3),
	}
}

// Elem addresses one component within an RCE (the "element address" field).
// The numbering is an encoding, not the data path order, which package
// rce's chain defines. D exists only in RCE MULs (columns 1 and 3). ER is
// the embedded-RAM read port configuration (bank and address presented on
// INER).
type Elem uint8

const (
	ElemInsel Elem = iota
	ElemE1
	ElemA1
	ElemB
	ElemC
	ElemE2
	ElemD
	ElemF
	ElemA2
	ElemE3
	ElemReg
	ElemOut
	ElemER
	elemCount
)

var elemNames = [...]string{
	ElemInsel: "INSEL",
	ElemE1:    "E1",
	ElemA1:    "A1",
	ElemB:     "B",
	ElemC:     "C",
	ElemE2:    "E2",
	ElemD:     "D",
	ElemF:     "F",
	ElemA2:    "A2",
	ElemE3:    "E3",
	ElemReg:   "REG",
	ElemOut:   "OUT",
	ElemER:    "ER",
}

// String returns the assembler name of the element.
func (e Elem) String() string {
	if int(e) < len(elemNames) {
		return elemNames[e]
	}
	return fmt.Sprintf("ELEM(%d)", uint8(e))
}

// Valid reports whether e is a defined element address.
func (e Elem) Valid() bool { return e < elemCount }

// ElemByName resolves an assembler element name.
func ElemByName(name string) (Elem, bool) {
	for i, n := range elemNames {
		if n == name {
			return Elem(i), true
		}
	}
	return 0, false
}

// Instr is a decoded instruction. Pack and Unpack convert to and from the
// 80-bit wire format; they are exact inverses for all field values within
// range (property-tested).
type Instr struct {
	Op    Opcode
	Slice Slice
	Elem  Elem
	LUT   uint16 // 9 bits
	Data  uint64 // 50 bits
}

// Pack encodes the instruction into the 80-bit word.
func (in Instr) Pack() Word {
	// Assemble the top 30 bits (opcode, slice, element, LUT high bit...) in
	// a single 64-bit accumulator for bits 79..50, then place data below.
	top := uint64(in.Op&0x1f)<<25 | uint64(in.Slice.pack())<<13 |
		uint64(in.Elem&0xf)<<9 | uint64(in.LUT&0x1ff)
	// top now holds bits 79..50 in its low 30 bits.
	// Word bits: Hi = bits 79..64 = top >> 14.
	// Lo bits 63..50 = low 14 bits of top; bits 49..0 = data.
	return Word{
		Hi: uint16(top >> 14),
		Lo: (top&0x3fff)<<50 | in.Data&(1<<50-1),
	}
}

// Unpack decodes an 80-bit word. It returns an error for undefined opcodes
// or element addresses so that corrupted microcode is caught at load time.
func Unpack(w Word) (Instr, error) {
	top := uint64(w.Hi)<<14 | w.Lo>>50
	in := Instr{
		Op:    Opcode(top >> 25 & 0x1f),
		Slice: unpackSlice(uint16(top >> 13 & 0xfff)),
		Elem:  Elem(top >> 9 & 0xf),
		LUT:   uint16(top & 0x1ff),
		Data:  w.Lo & (1<<50 - 1),
	}
	if !in.Op.Valid() {
		return in, fmt.Errorf("isa: undefined opcode %d", uint8(in.Op))
	}
	if in.Op == OpCfgElem && !in.Elem.Valid() {
		return in, fmt.Errorf("isa: undefined element address %d", uint8(in.Elem))
	}
	return in, nil
}

// String renders the instruction as one line of disassembly.
func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpHalt:
		return in.Op.String()
	case OpCfgElem:
		return fmt.Sprintf("%s %s %s %#x", in.Op, in.Slice, in.Elem, in.Data)
	case OpLoadLUT:
		return fmt.Sprintf("%s %s lut=%#x %#x", in.Op, in.Slice, in.LUT, in.Data)
	case OpJmp:
		return fmt.Sprintf("%s %#x", in.Op, in.Data&0xfff)
	case OpEnOut, OpDisOut:
		return fmt.Sprintf("%s %s", in.Op, in.Slice)
	default:
		return fmt.Sprintf("%s %s %#x", in.Op, in.Slice, in.Data)
	}
}

// IRAMWords is the iRAM capacity: a 12-bit × 80-bit memory supporting
// programs of up to 4096 total instructions (§3.3).
const IRAMWords = 4096
