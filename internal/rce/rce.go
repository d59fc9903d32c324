// Package rce models the Reconfigurable Cryptographic Element, the primary
// processing element of the COBRA architecture (§3.2 of the paper).
//
// Each RCE operates on one 32-bit block of the 128-bit data stream. The
// data flow through the elements is fixed; every element may be selectively
// disabled (bypassed) via microcode. The chain is:
//
//	INSEL → E1 → A1 → C → E2 → D → B → F → A2 → E3 → REG → OUT
//
// where E is a shift/rotate unit, A a Boolean unit, B an adder/subtractor
// mod 2^8/2^16/2^32 (placed after the mid-chain rotator so a key addition
// can follow a data-dependent rotation, as RC6 requires), C the
// look-up-table unit, D the multiplier (present only in RCE MULs, columns 1
// and 3), F the GF(2^8) fixed-field-constant multiplier, and REG an
// optional output register enabling pipelined operation. INSEL selects the
// pipeline's starting block from the current row input or, via the one-row
// bypass bus, the previous row's input (see DESIGN.md).
//
// Decode turns a configuration into its Chain: the INSEL source port, then
// the active elements in data-flow order, each with its resolved operation
// and operand. The chain is the one description of that data flow. Eval
// walks it on 32-bit words; the trace compiler (package fastpath), the
// static analyses (packages dataflow and equiv) and the timing model
// (package model) walk the same chain, each supplying only its own meaning
// of every operation. Package datapath's Tap resolves the chain's ports to
// blocks of the array interconnect.
//
// Evaluation is purely combinational here; registering and output-enable
// freezing are sequenced by the datapath (package datapath), which owns the
// register state.
package rce

import (
	"fmt"
	"strings"

	"cobra/internal/bits"
	"cobra/internal/isa"
)

// Inputs carries everything an RCE can observe in one datapath cycle: its
// row-input ports and the eRAM read port INER.
type Inputs struct {
	// Port holds INA..IND (ports 0..3), the row input as the RCE's column
	// sees it: its primary block, then the three secondary blocks (§3.1).
	// PA..PD (ports 4..7) follow: the previous row's input, blocks 0..3,
	// on the one-row bypass bus, which only INSEL taps.
	Port [8]uint32
	INER uint32
}

// LUTStore is the C element storage: four 256×8 tables and four 128×4
// tables, 10,240 bits in total, matching the §4.2 accounting. The 4→4
// tables hold eight 16-entry pages; nibble lane i uses table i/2 (lanes
// share tables pair-wise).
type LUTStore struct {
	S8 [4][256]uint8
	S4 [4][128]uint8 // eight pages × sixteen 4-bit entries, low nibble used
}

// Config is the complete control state of one RCE, the union of all element
// control registers. The zero value is the identity configuration: every
// element bypassed, register disabled, output enabled at the datapath
// level.
type Config struct {
	Insel isa.InselCfg
	E1    isa.ECfg
	A1    isa.ACfg
	B     isa.BCfg
	C     isa.CCfg
	E2    isa.ECfg
	D     isa.DCfg
	F     isa.FCfg
	A2    isa.ACfg
	E3    isa.ECfg
	Reg   isa.RegCfg
	ER    isa.ERCfg
}

// order is the fixed data flow through the configurable elements; D
// exists only in RCE MULs.
var order = [...]isa.Elem{
	isa.ElemE1, isa.ElemA1, isa.ElemC, isa.ElemE2, isa.ElemD,
	isa.ElemB, isa.ElemF, isa.ElemA2, isa.ElemE3,
}

// Op is the operation an active element performs.
type Op uint8

const (
	OpShl     Op = iota + 1 // E: shift left by the amount
	OpShr                   // E: logical shift right by the amount
	OpRotl                  // E: rotate left by the amount
	OpXor                   // A
	OpAnd                   // A
	OpOr                    // A
	OpS8                    // C: four parallel 8→8 LUTs, one per byte lane
	OpS4                    // C: eight parallel 4→4 LUTs on page Sel
	OpS8to32                // C: input byte Sel indexes all four 8→8 banks
	OpMul                   // D: multiply mod 2^16 lanes or 2^32 (Width)
	OpSquare                // D: square mod 2^32
	OpAdd                   // B: add mod Width
	OpSub                   // B: subtract mod Width
	OpGFLanes               // F: each byte lane times its constant in GF(2^8)
	OpGFMDS                 // F: circulant-matrix column product in GF(2^8)
)

// Source says where an element's secondary operand comes from.
type Source uint8

const (
	// NoOperand: the operation reads only the chain value (C, F, D square).
	NoOperand Source = iota
	// FromPort: row-input port Operand.Port, one of INA..IND.
	FromPort
	// FromERAM: the eRAM read port INER.
	FromERAM
	// FromImm: the immediate Operand.Imm, taken from the control word. An
	// undefined source encoding (6 or 7) selects the immediate 0.
	FromImm
)

// Operand is an element's resolved operand multiplexor setting. An E
// element's operand is its shift amount: the low five bits of the value.
type Operand struct {
	From Source
	Port uint8  // FromPort: 0..3 for INA..IND
	Imm  uint32 // FromImm
}

// Step is one active element of a chain.
type Step struct {
	Operand Operand
	Elem    isa.Elem
	Op      Op
	// Neg negates an E element's amount mod 32 before use.
	Neg bool
	// Shift and Rot are an A element's operand pre-shift: a left shift by
	// Shift, or a left rotate with Rot. Zero means none.
	Shift uint8
	Rot   bool
	// Width is a B or D element's arithmetic width.
	Width bits.Width
	// Sel is a C element's 4→4 page (OpS4) or input byte (OpS8to32).
	Sel uint8
	// Consts are an F element's field constants.
	Consts [4]uint8
}

// Amount returns an E step's shift amount for operand value v: its low
// five bits, negated mod 32 under Neg.
func (s *Step) Amount(v uint32) uint {
	amt := uint(v & 31)
	if s.Neg {
		amt = (32 - amt) & 31
	}
	return amt
}

// PreShifted applies an A step's operand pre-shift to operand value v.
func (s *Step) PreShifted(v uint32) uint32 {
	if s.Shift == 0 {
		return v
	}
	if s.Rot {
		return bits.RotL(v, uint(s.Shift))
	}
	return bits.Shl(v, uint(s.Shift))
}

// Chain is a configuration decoded into its data flow: the port feeding
// the pipeline, then the active elements in data-flow order.
type Chain struct {
	// Insel is the INSEL source port: 0..3 for INA..IND, 4..7 for PA..PD.
	Insel uint8
	n     uint8
	steps [len(order)]Step
}

// Steps returns the active elements in data-flow order. The slice aliases
// the chain and must not be modified.
func (c *Chain) Steps() []Step { return c.steps[:c.n] }

// Decode decodes a configuration into its chain, one element at a time in
// data-flow order. D is decoded only on an RCE MUL.
func Decode(cfg *Config, hasMul bool) Chain {
	var ch Chain
	ch.update(cfg, isa.ElemInsel)
	for _, e := range order {
		if e != isa.ElemD || hasMul {
			ch.update(cfg, e)
		}
	}
	return ch
}

// rank numbers the chain elements from 1 in data-flow order; 0 marks the
// element addresses outside the chain.
var rank = func() (r [16]uint8) {
	for i, e := range order {
		r[e] = uint8(i + 1)
	}
	return r
}()

// update decodes element e of cfg into the chain: INSEL's source port, or
// e's step, which replaces e's old step, is inserted in data-flow order or,
// when e is bypassed, removed. Every chain is built this way, so a
// configuration write costs one element's decode, not the chain's.
func (c *Chain) update(cfg *Config, e isa.Elem) {
	if e == isa.ElemInsel {
		c.Insel = cfg.Insel.Source & 7
		return
	}
	if rank[e] == 0 {
		return
	}
	i := 0
	for i < int(c.n) && rank[c.steps[i].Elem] < rank[e] {
		i++
	}
	had := i < int(c.n) && c.steps[i].Elem == e
	var s Step
	switch active := cfg.step(e, &s); {
	case active && had:
		c.steps[i] = s
	case active:
		copy(c.steps[i+1:c.n+1], c.steps[i:c.n])
		c.steps[i] = s
		c.n++
	case had:
		copy(c.steps[i:c.n], c.steps[i+1:c.n])
		c.n--
	}
}

// DecodeElem decodes one element control word into the step it puts in the
// chain. ok is false when the word bypasses the element, and for the
// addresses that are not chain elements (INSEL, REG, ER, OUT).
func DecodeElem(e isa.Elem, data uint64) (s Step, ok bool) {
	var cfg Config
	cfg.set(e, data)
	ok = cfg.step(e, &s)
	return s, ok
}

// set installs one element's control word. It reports false for an
// address that names no element.
func (cfg *Config) set(e isa.Elem, data uint64) bool {
	switch e {
	case isa.ElemInsel:
		cfg.Insel = isa.DecodeInsel(data)
	case isa.ElemE1:
		cfg.E1 = isa.DecodeE(data)
	case isa.ElemA1:
		cfg.A1 = isa.DecodeA(data)
	case isa.ElemB:
		cfg.B = isa.DecodeB(data)
	case isa.ElemC:
		cfg.C = isa.DecodeC(data)
	case isa.ElemE2:
		cfg.E2 = isa.DecodeE(data)
	case isa.ElemD:
		cfg.D = isa.DecodeD(data)
	case isa.ElemF:
		cfg.F = isa.DecodeF(data)
	case isa.ElemA2:
		cfg.A2 = isa.DecodeA(data)
	case isa.ElemE3:
		cfg.E3 = isa.DecodeE(data)
	case isa.ElemReg:
		cfg.Reg = isa.DecodeReg(data)
	case isa.ElemER:
		cfg.ER = isa.DecodeER(data)
	case isa.ElemOut:
		// Output enable is sequenced by the datapath via OpEnOut/OpDisOut;
		// ElemOut via OpCfgElem is accepted as a no-op for forward
		// compatibility with whole-RCE configuration streams.
	default:
		return false
	}
	return true
}

// The operation each element's 2-bit mode field selects; 0 bypasses the
// element. The ISA leaves two of these encodings undefined, and each has
// the interpreter's meaning here: B mode 3 subtracts and F mode 3 is a
// bypass.
var (
	eOps = [4]Op{isa.EShl: OpShl, isa.EShr: OpShr, isa.ERotl: OpRotl}
	aOps = [4]Op{isa.AXor: OpXor, isa.AAnd: OpAnd, isa.AOr: OpOr}
	bOps = [4]Op{isa.BAdd: OpAdd, isa.BSub: OpSub, 3: OpSub}
	cOps = [4]Op{isa.CS8x8: OpS8, isa.CS4x4: OpS4, isa.CS8to32: OpS8to32}
	dOps = [4]Op{isa.DMul16: OpMul, isa.DMul32: OpMul, isa.DSquare: OpSquare}
	fOps = [4]Op{isa.FLanes: OpGFLanes, isa.FMDS: OpGFMDS}
)

// step decodes chain element e of the configuration into s. It reports
// false, leaving s unspecified, when the element is bypassed.
func (cfg *Config) step(e isa.Elem, s *Step) bool {
	*s = Step{Elem: e}
	switch e {
	case isa.ElemE1:
		s.decodeE(&cfg.E1)
	case isa.ElemE2:
		s.decodeE(&cfg.E2)
	case isa.ElemE3:
		s.decodeE(&cfg.E3)
	case isa.ElemA1:
		s.decodeA(&cfg.A1)
	case isa.ElemA2:
		s.decodeA(&cfg.A2)
	case isa.ElemC:
		switch s.Op = cOps[cfg.C.Mode&3]; s.Op {
		case OpS4:
			s.Sel = cfg.C.Page & 7
		case OpS8to32:
			s.Sel = cfg.C.ByteSel & 3
		}
	case isa.ElemD:
		// Square reads only the chain value.
		if s.Op = dOps[cfg.D.Mode&3]; s.Op == OpMul {
			s.Operand, s.Width = operand(cfg.D.Operand, cfg.D.Imm), bits.W32
			if cfg.D.Mode == isa.DMul16 {
				s.Width = bits.W16
			}
		}
	case isa.ElemB:
		s.Op, s.Operand, s.Width = bOps[cfg.B.Mode&3], operand(cfg.B.Operand, cfg.B.Imm), bits.Width(cfg.B.Width)
	case isa.ElemF:
		s.Op, s.Consts = fOps[cfg.F.Mode&3], cfg.F.Consts
	}
	return s.Op != 0
}

// decodeE decodes a shift/rotate element. Its immediate is the 5-bit
// amount field; any other source supplies the low five bits of its value
// (the element's 5-bit M mux).
func (s *Step) decodeE(c *isa.ECfg) {
	s.Op, s.Operand, s.Neg = eOps[c.Mode&3], operand(c.AmtSrc, uint32(c.Amt)), c.Neg
}

// decodeA decodes a Boolean element, including its operand pre-shift.
func (s *Step) decodeA(c *isa.ACfg) {
	s.Op, s.Operand, s.Shift, s.Rot = aOps[c.Op&3], operand(c.Operand, c.Imm), c.PreShift, c.PreShiftRot
}

// operand resolves an operand multiplexor setting; imm is the control
// word's immediate.
func operand(src isa.Src, imm uint32) Operand {
	switch src {
	case isa.SrcINA:
		return Operand{From: FromPort, Port: 0}
	case isa.SrcINB:
		return Operand{From: FromPort, Port: 1}
	case isa.SrcINC:
		return Operand{From: FromPort, Port: 2}
	case isa.SrcIND:
		return Operand{From: FromPort, Port: 3}
	case isa.SrcINER:
		return Operand{From: FromERAM}
	case isa.SrcImm:
		return Operand{From: FromImm, Imm: imm}
	}
	return Operand{From: FromImm}
}

// RCE is one reconfigurable cryptographic element: its configuration
// registers, their decoded chain, and its LUT storage. HasMul
// distinguishes RCE MULs (columns 1 and 3) from plain RCEs; configuring D
// on a plain RCE is rejected.
type RCE struct {
	HasMul bool
	// Cfg is written only by ApplyElem and Reset, which keep the decoded
	// chain in step with it.
	Cfg   Config
	LUT   LUTStore
	chain Chain
}

// New returns an RCE in the identity configuration.
func New(hasMul bool) *RCE { return &RCE{HasMul: hasMul} }

// Reset restores the identity configuration and clears the LUTs.
func (r *RCE) Reset() {
	r.Cfg = Config{}
	r.LUT = LUTStore{}
	r.chain = Chain{}
}

// Chain returns the current configuration's decoded chain. It must not be
// modified.
func (r *RCE) Chain() *Chain { return &r.chain }

// ApplyElem decodes and installs the control word for one element and
// updates the chain. It returns an error when the element does not exist
// in this RCE type (D on a plain RCE) so that bad microcode is surfaced
// rather than silently ignored.
func (r *RCE) ApplyElem(e isa.Elem, data uint64) error {
	if e == isa.ElemD && !r.HasMul {
		return fmt.Errorf("rce: D element configured on an RCE without a multiplier")
	}
	if !r.Cfg.set(e, data) {
		return fmt.Errorf("rce: unknown element address %v", e)
	}
	r.chain.update(&r.Cfg, e)
	return nil
}

// LoadLUT installs one OpLoadLUT group: four bytes (8→8 space) or eight
// nibbles (4→4 space) from the low 32 bits of data.
func (r *RCE) LoadLUT(addr uint16, data uint64) error {
	space4, bank, group := isa.SplitLUTAddr(addr)
	if space4 {
		if group > 15 {
			return fmt.Errorf("rce: 4x4 LUT group %d out of range", group)
		}
		for i := 0; i < 8; i++ {
			r.LUT.S4[bank][group*8+i] = uint8(data>>(4*i)) & 0xf
		}
		return nil
	}
	if group > 63 {
		return fmt.Errorf("rce: 8x8 LUT group %d out of range", group)
	}
	for i := 0; i < 4; i++ {
		r.LUT.S8[bank][group*4+i] = uint8(data >> (8 * i))
	}
	return nil
}

// read returns the value an operand multiplexor presents.
func (in *Inputs) read(o Operand) uint32 {
	switch o.From {
	case FromPort:
		return in.Port[o.Port]
	case FromERAM:
		return in.INER
	}
	return o.Imm
}

// Eval computes the RCE's combinational output for the given inputs: the
// INSEL-selected port's block through every step of the chain.
func (r *RCE) Eval(in *Inputs) uint32 {
	x := in.Port[r.chain.Insel]
	steps := r.chain.Steps()
	for i := range steps {
		x = r.eval(&steps[i], x, in)
	}
	return x
}

// eval applies one step to the chain value x.
func (r *RCE) eval(s *Step, x uint32, in *Inputs) uint32 {
	switch s.Op {
	case OpShl:
		return bits.Shl(x, s.Amount(in.read(s.Operand)))
	case OpShr:
		return bits.Shr(x, s.Amount(in.read(s.Operand)))
	case OpRotl:
		return bits.RotL(x, s.Amount(in.read(s.Operand)))
	case OpXor:
		return x ^ s.PreShifted(in.read(s.Operand))
	case OpAnd:
		return x & s.PreShifted(in.read(s.Operand))
	case OpOr:
		return x | s.PreShifted(in.read(s.Operand))
	case OpS8:
		var out uint32
		for lane := 0; lane < 4; lane++ {
			b := uint8(x >> (8 * uint(lane)))
			out |= uint32(r.LUT.S8[lane][b]) << (8 * uint(lane))
		}
		return out
	case OpS4:
		page := uint32(s.Sel)
		var out uint32
		for lane := 0; lane < 8; lane++ {
			n := x >> (4 * uint(lane)) & 0xf
			tbl := lane / 2 // nibble lanes share tables pair-wise
			out |= uint32(r.LUT.S4[tbl][page*16+n]&0xf) << (4 * uint(lane))
		}
		return out
	case OpS8to32:
		b := uint8(x >> (8 * uint(s.Sel)))
		return uint32(r.LUT.S8[0][b]) | uint32(r.LUT.S8[1][b])<<8 |
			uint32(r.LUT.S8[2][b])<<16 | uint32(r.LUT.S8[3][b])<<24
	case OpMul:
		return bits.MulMod(x, in.read(s.Operand), s.Width)
	case OpSquare:
		return bits.SquareMod32(x)
	case OpAdd:
		return bits.AddMod(x, in.read(s.Operand), s.Width)
	case OpSub:
		return bits.SubMod(x, in.read(s.Operand), s.Width)
	case OpGFLanes:
		return bits.GFMulWord(x, s.Consts)
	case OpGFMDS:
		return bits.GFMDSColumn(x, s.Consts)
	}
	return x
}

// Describe renders the element chain with the current configuration, the
// textual equivalent of the paper's figures 2 and 3: every element in
// data-flow order, the active ones with their modes.
func (r *RCE) Describe() string {
	var b strings.Builder
	kind := "RCE"
	if r.HasMul {
		kind = "RCE MUL"
	}
	fmt.Fprintf(&b, "%s: IN[%s]", kind, isa.InselNames[r.chain.Insel])
	active := r.chain.Steps()
	for _, e := range order {
		if e == isa.ElemD && !r.HasMul {
			continue
		}
		if len(active) > 0 && active[0].Elem == e {
			fmt.Fprintf(&b, " -> %s(%s)", e, r.Cfg.mode(e))
			active = active[1:]
		} else {
			fmt.Fprintf(&b, " -> %s", e)
		}
	}
	if r.Cfg.Reg.Enabled {
		b.WriteString(" -> REG")
	}
	b.WriteString(" -> OUT")
	return b.String()
}

// mode names element e's configured mode, with the operand source of the
// Boolean and adder elements and of the multiplier's multiply modes.
func (cfg *Config) mode(e isa.Elem) string {
	switch e {
	case isa.ElemE1:
		return cfg.E1.Mode.String()
	case isa.ElemE2:
		return cfg.E2.Mode.String()
	case isa.ElemE3:
		return cfg.E3.Mode.String()
	case isa.ElemA1:
		return fmt.Sprintf("%s %s", cfg.A1.Op, cfg.A1.Operand)
	case isa.ElemA2:
		return fmt.Sprintf("%s %s", cfg.A2.Op, cfg.A2.Operand)
	case isa.ElemB:
		return fmt.Sprintf("%s %s", cfg.B.Mode, cfg.B.Operand)
	case isa.ElemC:
		return cfg.C.Mode.String()
	case isa.ElemD:
		if cfg.D.Mode == isa.DSquare {
			return cfg.D.Mode.String()
		}
		return fmt.Sprintf("%s %s", cfg.D.Mode, cfg.D.Operand)
	case isa.ElemF:
		return cfg.F.Mode.String()
	}
	return ""
}
