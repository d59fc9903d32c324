package isa

import "fmt"

// Src selects the secondary operand presented to an element by its M
// multiplexor. The paper's M elements accept the B, C, D and ER input
// blocks (§3.1/§3.2); we additionally expose the element's own primary
// block (INA) and a configuration-word immediate, both of which the
// published cipher mappings require (see DESIGN.md, "RCE micro-structure
// assumptions").
type Src uint8

const (
	SrcINB Src = iota
	SrcINC
	SrcIND
	SrcINER
	SrcImm
	SrcINA
	srcCount
)

var srcNames = [...]string{"INB", "INC", "IND", "INER", "IMM", "INA"}

// String returns the assembler name of the source.
func (s Src) String() string {
	if int(s) < len(srcNames) {
		return srcNames[s]
	}
	return fmt.Sprintf("SRC(%d)", uint8(s))
}

// Valid reports whether s is a defined operand source.
func (s Src) Valid() bool { return s < srcCount }

// SrcByName resolves an assembler source name.
func SrcByName(name string) (Src, bool) {
	for i, n := range srcNames {
		if n == name {
			return Src(i), true
		}
	}
	return 0, false
}

// immShift is the bit position of the 32-bit immediate inside the 50-bit
// configuration data field, common to every control word that carries one.
const immShift = 16

// --- INSEL -----------------------------------------------------------------

// InselCfg selects which 32-bit block feeds the RCE's internal pipeline:
// one of the four current row-input blocks (INA..IND) or one of the four
// previous-row-input blocks (PA..PD) carried on the one-row bypass bus (see
// DESIGN.md: the bypass is required to hold RC6's six live values across a
// row boundary). The reset value is the column's own primary block.
type InselCfg struct {
	Source uint8 // 0=INA, 1=INB, 2=INC, 3=IND, 4=PA, 5=PB, 6=PC, 7=PD
}

// InselNames are the assembler names of the INSEL sources.
var InselNames = [8]string{"INA", "INB", "INC", "IND", "PA", "PB", "PC", "PD"}

// Encode packs the control word into a configuration data field.
func (c InselCfg) Encode() uint64 { return uint64(c.Source & 7) }

// DecodeInsel unpacks an INSEL control word.
func DecodeInsel(d uint64) InselCfg { return InselCfg{Source: uint8(d & 7)} }

// --- E (shift/rotate) --------------------------------------------------------

// EMode is the E element operating mode.
type EMode uint8

const (
	EBypass EMode = iota
	EShl
	EShr
	ERotl
)

var eModeNames = [...]string{"BYP", "SHL", "SHR", "ROTL"}

// String returns the assembler name of the mode.
func (m EMode) String() string {
	if int(m) < len(eModeNames) {
		return eModeNames[m]
	}
	return fmt.Sprintf("EMODE(%d)", uint8(m))
}

// ECfg configures a shift/rotate element. Shift and rotate values may be
// data dependent (§3.2): AmtSrc selects either the 5-bit immediate or the
// low five bits of a secondary input block via the element's 5-bit M mux.
// Neg negates the amount modulo 32 before use, turning a left rotate by a
// data-dependent amount into a right rotate — the operation RC6
// decryption needs (a 5-bit two's-complement stage on the amount path).
type ECfg struct {
	Mode   EMode
	AmtSrc Src   // SrcImm uses Amt; others take low 5 bits of that block
	Amt    uint8 // 5-bit immediate amount
	Neg    bool  // use (32 - amount) mod 32
}

// Encode packs the control word.
func (c ECfg) Encode() uint64 {
	d := uint64(c.Mode&3) | uint64(c.AmtSrc&7)<<2 | uint64(c.Amt&31)<<5
	if c.Neg {
		d |= 1 << 10
	}
	return d
}

// DecodeE unpacks an E control word.
func DecodeE(d uint64) ECfg {
	return ECfg{
		Mode:   EMode(d & 3),
		AmtSrc: Src(d >> 2 & 7),
		Amt:    uint8(d >> 5 & 31),
		Neg:    d>>10&1 == 1,
	}
}

// --- A (Boolean) -------------------------------------------------------------

// AOp is the A element Boolean operation.
type AOp uint8

const (
	ABypass AOp = iota
	AXor
	AAnd
	AOr
)

var aOpNames = [...]string{"BYP", "XOR", "AND", "OR"}

// String returns the assembler name of the operation.
func (o AOp) String() string {
	if int(o) < len(aOpNames) {
		return aOpNames[o]
	}
	return fmt.Sprintf("AOP(%d)", uint8(o))
}

// ACfg configures a Boolean element. PreShift applies a fixed left
// shift/rotate to the secondary operand before the Boolean operation (used
// by the A2 instance for Serpent's linear transformation; see DESIGN.md).
type ACfg struct {
	Op          AOp
	Operand     Src
	PreShift    uint8 // 5-bit fixed amount applied to the operand
	PreShiftRot bool  // false: logical left shift, true: left rotate
	Imm         uint32
}

// Encode packs the control word.
func (c ACfg) Encode() uint64 {
	d := uint64(c.Op&3) | uint64(c.Operand&7)<<2 | uint64(c.PreShift&31)<<5
	if c.PreShiftRot {
		d |= 1 << 10
	}
	return d | uint64(c.Imm)<<immShift
}

// DecodeA unpacks an A control word.
func DecodeA(d uint64) ACfg {
	return ACfg{
		Op:          AOp(d & 3),
		Operand:     Src(d >> 2 & 7),
		PreShift:    uint8(d >> 5 & 31),
		PreShiftRot: d>>10&1 == 1,
		Imm:         uint32(d >> immShift),
	}
}

// --- B (add/sub) -------------------------------------------------------------

// BMode is the B element operating mode.
type BMode uint8

const (
	BBypass BMode = iota
	BAdd
	BSub
)

var bModeNames = [...]string{"BYP", "ADD", "SUB"}

// Valid reports whether the mode is a defined encoding (the 2-bit field
// has one undefined value).
func (m BMode) Valid() bool { return int(m) < len(bModeNames) }

// String returns the assembler name of the mode.
func (m BMode) String() string {
	if int(m) < len(bModeNames) {
		return bModeNames[m]
	}
	return fmt.Sprintf("BMODE(%d)", uint8(m))
}

// BCfg configures an adder/subtractor element: add or subtract mod 2^8,
// 2^16 or 2^32 (lane-wise for the narrow widths).
type BCfg struct {
	Mode    BMode
	Width   uint8 // 0: mod 2^8 lanes, 1: mod 2^16 lanes, 2: mod 2^32
	Operand Src
	Imm     uint32
}

// Encode packs the control word.
func (c BCfg) Encode() uint64 {
	return uint64(c.Mode&3) | uint64(c.Width&3)<<2 | uint64(c.Operand&7)<<4 |
		uint64(c.Imm)<<immShift
}

// DecodeB unpacks a B control word.
func DecodeB(d uint64) BCfg {
	return BCfg{
		Mode:    BMode(d & 3),
		Width:   uint8(d >> 2 & 3),
		Operand: Src(d >> 4 & 7),
		Imm:     uint32(d >> immShift),
	}
}

// --- C (look-up tables) -------------------------------------------------------

// CMode is the C element operating mode (§3.2: four 8-bit to 8-bit mappings,
// eight pages of eight 4-bit to 4-bit mappings, or an 8-bit to 32-bit
// substitution built from the four 8→8 banks in parallel).
type CMode uint8

const (
	CBypass CMode = iota
	CS8x8         // four parallel 8→8 LUTs, one per byte lane
	CS4x4         // eight parallel 4→4 LUTs with page select
	CS8to32       // 8→32: one selected input byte indexes all four banks
)

var cModeNames = [...]string{"BYP", "S8", "S4", "S8TO32"}

// String returns the assembler name of the mode.
func (m CMode) String() string {
	if int(m) < len(cModeNames) {
		return cModeNames[m]
	}
	return fmt.Sprintf("CMODE(%d)", uint8(m))
}

// CCfg configures the LUT element. Page selects one of the eight 4→4 pages
// (paging mode); ByteSel selects the input byte in 8→32 mode.
type CCfg struct {
	Mode    CMode
	Page    uint8 // 0..7
	ByteSel uint8 // 0..3
}

// Encode packs the control word.
func (c CCfg) Encode() uint64 {
	return uint64(c.Mode&3) | uint64(c.Page&7)<<2 | uint64(c.ByteSel&3)<<5
}

// DecodeC unpacks a C control word.
func DecodeC(d uint64) CCfg {
	return CCfg{
		Mode:    CMode(d & 3),
		Page:    uint8(d >> 2 & 7),
		ByteSel: uint8(d >> 5 & 3),
	}
}

// --- D (multiplier, RCE MUL only) ---------------------------------------------

// DMode is the D element operating mode.
type DMode uint8

const (
	DBypass DMode = iota
	DMul16        // multiply mod 2^16 (lane-wise on two 16-bit lanes)
	DMul32        // multiply mod 2^32
	DSquare       // square mod 2^32
)

var dModeNames = [...]string{"BYP", "MUL16", "MUL32", "SQR"}

// String returns the assembler name of the mode.
func (m DMode) String() string {
	if int(m) < len(dModeNames) {
		return dModeNames[m]
	}
	return fmt.Sprintf("DMODE(%d)", uint8(m))
}

// DCfg configures the multiplier element.
type DCfg struct {
	Mode    DMode
	Operand Src
	Imm     uint32
}

// Encode packs the control word.
func (c DCfg) Encode() uint64 {
	return uint64(c.Mode&3) | uint64(c.Operand&7)<<2 | uint64(c.Imm)<<immShift
}

// DecodeD unpacks a D control word.
func DecodeD(d uint64) DCfg {
	return DCfg{
		Mode:    DMode(d & 3),
		Operand: Src(d >> 2 & 7),
		Imm:     uint32(d >> immShift),
	}
}

// --- F (GF(2^8) fixed-constant multiplier) --------------------------------------

// FMode is the F element operating mode.
type FMode uint8

const (
	FBypass FMode = iota
	FLanes        // each byte lane multiplied by its fixed constant
	FMDS          // circulant-matrix column product (e.g. MixColumns)
)

var fModeNames = [...]string{"BYP", "LANES", "MDS"}

// String returns the assembler name of the mode.
func (m FMode) String() string {
	if int(m) < len(fModeNames) {
		return fModeNames[m]
	}
	return fmt.Sprintf("FMODE(%d)", uint8(m))
}

// FCfg configures the Galois-field element. Consts[0] applies to the least
// significant byte lane (LANES mode) or is the first row entry of the
// circulant matrix (MDS mode).
type FCfg struct {
	Mode   FMode
	Consts [4]uint8
}

// Encode packs the control word.
func (c FCfg) Encode() uint64 {
	d := uint64(c.Mode & 3)
	for i, k := range c.Consts {
		d |= uint64(k) << (immShift + 8*i)
	}
	return d
}

// DecodeF unpacks an F control word.
func DecodeF(d uint64) FCfg {
	c := FCfg{Mode: FMode(d & 3)}
	for i := range c.Consts {
		c.Consts[i] = uint8(d >> (immShift + 8*i))
	}
	return c
}

// --- REG / OUT ------------------------------------------------------------------

// RegCfg enables the RCE output register (pipelining support, §3.2).
type RegCfg struct{ Enabled bool }

// Encode packs the control word.
func (c RegCfg) Encode() uint64 {
	if c.Enabled {
		return 1
	}
	return 0
}

// DecodeReg unpacks a REG control word.
func DecodeReg(d uint64) RegCfg { return RegCfg{Enabled: d&1 == 1} }

// --- ER (embedded RAM read port) ---------------------------------------------

// ERCfg selects the eRAM word presented on the RCE's INER input: one of the
// column's four banks and an 8-bit address.
type ERCfg struct {
	Bank uint8 // 0..3
	Addr uint8
}

// Encode packs the control word.
func (c ERCfg) Encode() uint64 { return uint64(c.Bank&3) | uint64(c.Addr)<<2 }

// DecodeER unpacks an ER control word.
func DecodeER(d uint64) ERCfg {
	return ERCfg{Bank: uint8(d & 3), Addr: uint8(d >> 2)}
}

// --- Non-RCE configuration payloads --------------------------------------------

// InMuxMode selects the source feeding row 0 of the array.
type InMuxMode uint8

const (
	InExternal InMuxMode = iota // consume one block from the input bus per cycle
	InFeedback                  // loop the whitened output back (iterative mode)
	InERAM                      // play back blocks captured in the eRAMs
)

var inMuxNames = [...]string{"EXT", "FB", "ERAM"}

// String returns the assembler name of the mode.
func (m InMuxMode) String() string {
	if int(m) < len(inMuxNames) {
		return inMuxNames[m]
	}
	return fmt.Sprintf("INMUX(%d)", uint8(m))
}

// InMuxCfg is the payload of OpCfgInMux. Bank/Addr give the playback start
// for InERAM mode (each column reads from its own bank at a shared,
// auto-incrementing address).
type InMuxCfg struct {
	Mode InMuxMode
	Bank uint8
	Addr uint8
}

// Encode packs the payload.
func (c InMuxCfg) Encode() uint64 {
	return uint64(c.Mode&3) | uint64(c.Bank&3)<<2 | uint64(c.Addr)<<4
}

// DecodeInMux unpacks an OpCfgInMux payload.
func DecodeInMux(d uint64) InMuxCfg {
	return InMuxCfg{Mode: InMuxMode(d & 3), Bank: uint8(d >> 2 & 3), Addr: uint8(d >> 4)}
}

// WhiteMode selects the whitening register operation (§3.1: bit-wise XOR or
// mod 2^32 addition).
type WhiteMode uint8

const (
	WhiteOff WhiteMode = iota
	WhiteXor
	WhiteAdd
)

var whiteNames = [...]string{"OFF", "XOR", "ADD"}

// String returns the assembler name of the mode.
func (m WhiteMode) String() string {
	if int(m) < len(whiteNames) {
		return whiteNames[m]
	}
	return fmt.Sprintf("WHITE(%d)", uint8(m))
}

// WhiteCfg is the payload of OpCfgWhite for one column. In switches the
// column's whitening register onto the input path (pre-whitening, as RC6's
// B += S[0] and Rijndael's initial AddRoundKey require) instead of the
// output path; see DESIGN.md assumption 6.
type WhiteCfg struct {
	Col  uint8
	Mode WhiteMode
	In   bool
	Key  uint32
}

// Encode packs the payload.
func (c WhiteCfg) Encode() uint64 {
	d := uint64(c.Col&3) | uint64(c.Mode&3)<<2 | uint64(c.Key)<<immShift
	if c.In {
		d |= 1 << 4
	}
	return d
}

// DecodeWhite unpacks an OpCfgWhite payload.
func DecodeWhite(d uint64) WhiteCfg {
	return WhiteCfg{Col: uint8(d & 3), Mode: WhiteMode(d >> 2 & 3),
		In: d>>4&1 == 1, Key: uint32(d >> immShift)}
}

// ERAMWriteCfg is the payload of OpERAMWrite: store Value at (Bank, Addr) of
// the column addressed by the slice field.
type ERAMWriteCfg struct {
	Bank  uint8
	Addr  uint8
	Value uint32
}

// Encode packs the payload.
func (c ERAMWriteCfg) Encode() uint64 {
	return uint64(c.Bank&3) | uint64(c.Addr)<<2 | uint64(c.Value)<<immShift
}

// DecodeERAMWrite unpacks an OpERAMWrite payload.
func DecodeERAMWrite(d uint64) ERAMWriteCfg {
	return ERAMWriteCfg{Bank: uint8(d & 3), Addr: uint8(d >> 2), Value: uint32(d >> immShift)}
}

// CaptureCfg is the payload of OpCfgCapture for the column addressed by the
// slice field.
type CaptureCfg struct {
	Enabled bool
	Bank    uint8
	Addr    uint8 // starting address; auto-increments per advancing cycle
}

// Encode packs the payload.
func (c CaptureCfg) Encode() uint64 {
	d := uint64(c.Bank&3)<<1 | uint64(c.Addr)<<3
	if c.Enabled {
		d |= 1
	}
	return d
}

// DecodeCapture unpacks an OpCfgCapture payload.
func DecodeCapture(d uint64) CaptureCfg {
	return CaptureCfg{Enabled: d&1 == 1, Bank: uint8(d >> 1 & 3), Addr: uint8(d >> 3)}
}

// ShufCfg is the payload of OpCfgShuf: one half of a byte shuffler's
// permutation. Entry i of Perm gives the source byte index (0..15) for
// destination byte High*8+i of the 128-bit stream.
type ShufCfg struct {
	High bool // false: destination bytes 0..7, true: bytes 8..15
	Perm [8]uint8
}

// Encode packs the payload.
func (c ShufCfg) Encode() uint64 {
	var d uint64
	if c.High {
		d = 1
	}
	for i, p := range c.Perm {
		d |= uint64(p&15) << (1 + 4*i)
	}
	return d
}

// DecodeShuf unpacks an OpCfgShuf payload.
func DecodeShuf(d uint64) ShufCfg {
	c := ShufCfg{High: d&1 == 1}
	for i := range c.Perm {
		c.Perm[i] = uint8(d >> (1 + 4*i) & 15)
	}
	return c
}

// Flag-register bits (OpCtlFlag payload: set mask in bits 15..0, clear mask
// in bits 31..16). §3.4 defines the ready/busy/data-valid protocol; KEYREQ
// is one of the paper's "generic flags" used to request key material from
// the external system.
const (
	FlagReady  = 1 << 0
	FlagBusy   = 1 << 1
	FlagDValid = 1 << 2
	FlagKeyReq = 1 << 3
	FlagGen0   = 1 << 4
	FlagGen1   = 1 << 5
	FlagGen2   = 1 << 6
	FlagGen3   = 1 << 7
)

// FlagCfg is the payload of OpCtlFlag.
type FlagCfg struct {
	Set   uint16
	Clear uint16
}

// Encode packs the payload.
func (c FlagCfg) Encode() uint64 { return uint64(c.Set) | uint64(c.Clear)<<16 }

// DecodeFlag unpacks an OpCtlFlag payload.
func DecodeFlag(d uint64) FlagCfg {
	return FlagCfg{Set: uint16(d), Clear: uint16(d >> 16)}
}

// LUT address field layout for OpLoadLUT. Bit 8 selects the 4→4 bank space;
// otherwise the 8→8 banks are addressed. For 8→8 banks the group field
// addresses 4 consecutive bytes; for 4→4 banks it addresses 8 consecutive
// nibbles. The low 32 bits of the configuration data carry the entries,
// least significant byte/nibble first.
const (
	LUTSpace4x4 = 1 << 8 // set: 4→4 nibble tables; clear: 8→8 byte tables
)

// LUTAddr composes an OpLoadLUT address field.
func LUTAddr(space4 bool, bank, group int) uint16 {
	a := uint16(bank&3)<<6 | uint16(group&0x3f)
	if space4 {
		a |= LUTSpace4x4
	}
	return a
}

// SplitLUTAddr decomposes an OpLoadLUT address field.
func SplitLUTAddr(a uint16) (space4 bool, bank, group int) {
	return a&LUTSpace4x4 != 0, int(a >> 6 & 3), int(a & 0x3f)
}
