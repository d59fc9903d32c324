package fastpath

import (
	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/rce"
	"cobra/internal/sim"
)

// Trace is a compiled program: the per-cycle op-list IR the executor runs,
// its initial data state and its pipeline band layout. It is the one form
// of a compiled program. Every executor over it (Compile's and each Fresh
// one) runs this object, and Exec.Trace hands out the same object, so the
// independent checkers — package equiv's translation validator, package
// sca's side-channel profile, core's Config.Validate gate — read exactly
// what a device runs. Compile builds it and nothing changes it afterwards:
// it is read-only, shared by every executor over it and safe to read from
// any number of goroutines. Per-call data state (registers, feedback,
// resume point) lives in each Exec, never here.
//
// On each enabled cycle of a call of n blocks, a banded trace evaluates
// only the bands max(0, j−n+1)..min(j, PipelineDepth), where j counts the
// call's enabled cycles, and every other trace the whole array. Which
// cells a call evaluates therefore depends on its block count alone,
// never on data or key.
type Trace struct {
	Name          string
	Rows          int
	Streaming     bool // reload per call, pipeline flush (program.Run)
	PipelineDepth int  // register stages of a streaming program

	// Bands is the pipeline band layout of a streaming trace: the first
	// row of each of its PipelineDepth+1 bands, then Rows, so band s is
	// rows Bands[s] up to Bands[s+1] (the last band may hold none) and
	// holds block j−s at enabled cycle j. A band after the first starts
	// from the stored value of the register row above it. Nil: the trace
	// evaluates the whole array on every enabled cycle.
	Bands []int

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
	Rows     []TraceRow

	stats sim.Stats
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
