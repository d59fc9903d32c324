package fastpath

import (
	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/rce"
	"cobra/internal/sim"
)

// Trace is a compiled program: the per-cycle op-list IR the executor runs,
// its initial data state and, for a streaming trace that proves one, its
// batch form.
// It is the one form of a compiled program. Every executor over it
// (Compile's and each Fresh one) runs this object, and Exec.Trace hands out
// the same object, so the independent checkers — package equiv's
// translation validator, package sca's side-channel profile, core's
// Config.Validate gate — read exactly what a device runs. Compile builds it
// and nothing changes it afterwards: it is read-only, shared by every
// executor over it and safe to read from any number of goroutines.
// Per-call data state (registers, feedback, resume point) lives in each
// Exec, never here.
//
// A trace with a batch form runs each call on it, a batch of blocks at a
// time, and takes the call's counters from its cycles; every other trace
// runs its cycles on the whole array. Which cells a call evaluates
// therefore depends on its block count alone, never on data or key.
type Trace struct {
	Name          string
	Rows          int
	Streaming     bool // reload per call, pipeline flush (program.Run)
	PipelineDepth int  // register stages of a streaming program

	// Batch is the batch form of a streaming trace (see the package doc):
	// the one array configuration all its enabled cycles run. Nil: the
	// trace runs cycle by cycle on the whole array.
	Batch *TraceBatch

	InitReg [][datapath.Cols]uint32
	InitFB  bits.Block128

	Head   []TraceTick // load-to-first-output segment (ends at its output)
	Period []TraceTick // steady repeating segment (≥1 output per period)
}

// TraceTick is one compiled datapath cycle: the resolved array
// configuration plus the interpreter counters attributed to the cycle.
type TraceTick struct {
	Enabled  bool
	InMode   isa.InMuxMode
	ERAMVec  bits.Block128 // resolved playback words (InERAM mode)
	Emit     bool
	WhiteIn  [datapath.Cols]TraceWhite
	WhiteOut [datapath.Cols]TraceWhite
	Rows     []TraceRow // the previous enabled cycle's, when its array configuration is the same

	stats sim.Stats
}

// TraceBatch is the batch form of a streaming trace. Rows is the
// row list every enabled cycle of the trace runs, the same slice, and
// WhiteIn and WhiteOut are those cycles' whitening. One block's output is
// its input whitened in, passed through every row once, in order, with each
// registered cell passing on the block's own value, and whitened out.
type TraceBatch struct {
	WhiteIn  [datapath.Cols]TraceWhite
	WhiteOut [datapath.Cols]TraceWhite
	Rows     []TraceRow
}

// TraceWhite is one column's whitening operation at one stage.
type TraceWhite struct {
	Mode isa.WhiteMode
	Key  uint32
}

// apply whitens one column word; WhiteOff is the identity.
//
//cobra:hotpath
func (w TraceWhite) apply(x uint32) uint32 {
	switch w.Mode {
	case isa.WhiteXor:
		return x ^ w.Key
	case isa.WhiteAdd:
		return x + w.Key
	default:
		return x
	}
}

// TraceRow is one array row at one cycle.
type TraceRow struct {
	Shuffle *[16]uint8 // byte shuffler before this row (nil: identity)
	Cells   [datapath.Cols]TraceCell
}

// TraceCell is one RCE at one cycle.
type TraceCell struct {
	// Passthrough: identity configuration, out = vec[col] with no
	// register; the executor skips the cell entirely.
	Passthrough bool
	// RegOnly: registered and held — out = reg, nothing evaluated or
	// latched.
	RegOnly bool
	Insel   uint8 // 0..3: current row block; 4..7: prev-row block−4
	Reg     bool
	Steps   []TraceStep
}

// StepKind enumerates the compiled element operations: one per executable
// element operation, with constant operands folded at compile time.
type StepKind uint8

const (
	StepShlImm StepKind = iota
	StepShrImm
	StepRotlImm
	StepShlVar // amount from the low 5 bits of a block, negation in Flag
	StepShrVar
	StepRotlVar
	StepXorImm
	StepAndImm
	StepOrImm
	StepXorBlk
	StepAndBlk
	StepOrBlk
	StepAddImm
	StepSubImm
	StepAddBlk
	StepSubBlk
	StepS8
	StepS4
	StepS8to32
	StepMulImm
	StepMulBlk
	StepSquare
	StepGFTab
)

// TraceStep is one compiled element operation of an RCE's chain, with
// everything constant folded: immediates and eRAM reads resolved, shift
// negation folded into Flag, A-element pre-shifts in Aux/Flag, F elements
// as their folded contribution tables.
type TraceStep struct {
	Kind  StepKind
	Src   uint8 // block index for *Blk/*Var kinds
	Aux   uint8 // shift amount / B-D width / C page or byte select
	Flag  bool  // E: negate amount; A: operand pre-shift is a rotate
	ImmER bool  // Imm was folded from an eRAM read: key-schedule material
	Imm   uint32

	LUT *rce.LUTStore   // StepS8/StepS4/StepS8to32 tables (S4: low 4 bits)
	GF  *[4][256]uint32 // StepGFTab folded contribution tables (gfTables)
}

// Trace returns the executor's compiled program, the object it runs: the
// same pointer for every Fresh executor of one compile. Read it, never
// write it.
func (e *Exec) Trace() *Trace { return e.tr }
