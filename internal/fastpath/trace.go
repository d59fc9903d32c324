package fastpath

import (
	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/isa"
)

// Trace is the exported view of a compiled executor: the complete per-cycle
// op-list IR, the initial data state, the resume/reload policy and the
// pipeline band layout. It exists so that independent checkers (package
// equiv's translation validator) can reason about exactly what EncryptInto
// executes without reaching into this package's internals: on each enabled
// cycle of a call of n blocks, a banded trace evaluates only the bands
// max(0, j−n+1)..min(j, len(Bands)−1), where j counts the call's enabled
// cycles, and every other trace the whole array. Which cells a call
// evaluates therefore depends on its block count alone, never on data or
// key. Table pointers are shared with every executor over the trace —
// treat them as read-only.
type Trace struct {
	Name          string
	Rows          int
	Streaming     bool
	PipelineDepth int

	// Bands is the first row of each pipeline band of a streaming trace,
	// PipelineDepth+1 of them; band s ends where band s+1 starts (the last
	// at Rows) and holds block j−s at enabled cycle j. A band after the
	// first starts from the stored value of the register row above it.
	// Nil: the trace evaluates the whole array on every enabled cycle.
	Bands []int

	InitReg [][datapath.Cols]uint32
	InitFB  bits.Block128

	Head   []TraceTick // load-to-first-output segment
	Period []TraceTick // steady repeating segment
}

// TraceTick is one compiled datapath cycle.
type TraceTick struct {
	Enabled  bool
	InMode   isa.InMuxMode
	ERAMVec  bits.Block128 // resolved playback words (InERAM mode)
	Emit     bool
	WhiteIn  [datapath.Cols]TraceWhite
	WhiteOut [datapath.Cols]TraceWhite
	Rows     []TraceRow
}

// TraceWhite is one column's whitening operation at one stage.
type TraceWhite struct {
	Mode isa.WhiteMode
	Key  uint32
}

// TraceRow is one array row at one cycle.
type TraceRow struct {
	Shuffle *[16]uint8 // byte shuffler before this row (nil: identity)
	Cells   [datapath.Cols]TraceCell
}

// TraceCell is one RCE at one cycle.
type TraceCell struct {
	Passthrough bool  // out = vec[col], nothing evaluated
	RegOnly     bool  // registered and held: out = reg, nothing latched
	Insel       uint8 // 0..3: current row block; 4..7: prev-row block−4
	Reg         bool
	Steps       []TraceStep
}

// StepKind enumerates the compiled element operations. The values alias the
// internal step kinds, so the executor and the exported IR can never drift.
type StepKind uint8

const (
	StepShlImm  = StepKind(stShlImm)
	StepShrImm  = StepKind(stShrImm)
	StepRotlImm = StepKind(stRotlImm)
	StepShlVar  = StepKind(stShlVar)
	StepShrVar  = StepKind(stShrVar)
	StepRotlVar = StepKind(stRotlVar)
	StepXorImm  = StepKind(stXorImm)
	StepAndImm  = StepKind(stAndImm)
	StepOrImm   = StepKind(stOrImm)
	StepXorBlk  = StepKind(stXorBlk)
	StepAndBlk  = StepKind(stAndBlk)
	StepOrBlk   = StepKind(stOrBlk)
	StepAddImm  = StepKind(stAddImm)
	StepSubImm  = StepKind(stSubImm)
	StepAddBlk  = StepKind(stAddBlk)
	StepSubBlk  = StepKind(stSubBlk)
	StepS8      = StepKind(stS8)
	StepS4      = StepKind(stS4)
	StepS8to32  = StepKind(stS8to32)
	StepMulImm  = StepKind(stMulImm)
	StepMulBlk  = StepKind(stMulBlk)
	StepSquare  = StepKind(stSquare)
	StepGFTab   = StepKind(stGFTab)
)

// TraceStep is one compiled element operation, with the same constant
// folding the executor sees: immediates resolved, shift negation folded
// into Flag, A-element pre-shifts in Aux/Flag, F elements as their folded
// contribution tables.
type TraceStep struct {
	Kind  StepKind
	Src   uint8 // block index for *Blk/*Var kinds
	Aux   uint8 // shift amount / B-D width / C page or byte select
	Flag  bool  // E: negate amount; A: operand pre-shift is a rotate
	ImmER bool  // Imm was folded from an eRAM read: key-schedule material
	Imm   uint32

	S8 *[4][256]uint8  // StepS8/StepS8to32 lanes
	S4 *[4][128]uint8  // StepS4 nibble tables (low 4 bits significant)
	GF *[4][256]uint32 // StepGFTab folded contribution tables
}

// Trace exports the compiled IR. The per-call data state (registers,
// feedback, resume position) is deliberately absent: a Trace describes the
// function the executor computes from its post-load state, which is the
// object translation validation reasons about.
func (e *Exec) Trace() *Trace {
	tr := &Trace{
		Name:          e.src.Name,
		Rows:          e.rows,
		Streaming:     e.src.Streaming,
		PipelineDepth: e.src.PipelineDepth,
		InitReg:       append([][datapath.Cols]uint32(nil), e.initReg...),
		InitFB:        e.initFB,
		Head:          exportTicks(e.head),
		Period:        exportTicks(e.period),
	}
	if e.bands != nil {
		tr.Bands = append([]int(nil), e.bands[:len(e.bands)-1]...)
	}
	return tr
}

func exportTicks(ticks []cTick) []TraceTick {
	out := make([]TraceTick, len(ticks))
	for i := range ticks {
		ct := &ticks[i]
		tt := TraceTick{
			Enabled: ct.enabled,
			InMode:  ct.inMode,
			ERAMVec: ct.eramVec,
			Emit:    ct.emit,
			Rows:    make([]TraceRow, len(ct.rows)),
		}
		for c := 0; c < datapath.Cols; c++ {
			tt.WhiteIn[c] = TraceWhite{Mode: ct.whiteIn[c].mode, Key: ct.whiteIn[c].key}
			tt.WhiteOut[c] = TraceWhite{Mode: ct.whiteOut[c].mode, Key: ct.whiteOut[c].key}
		}
		for r := range ct.rows {
			row := &ct.rows[r]
			tr := TraceRow{Shuffle: row.Shuffle()}
			for c := 0; c < datapath.Cols; c++ {
				tr.Cells[c] = exportCell(&row.cells[c])
			}
			tt.Rows[r] = tr
		}
		out[i] = tt
	}
	return out
}

// Shuffle returns the row's compiled shuffler permutation (nil: identity).
func (row *cRow) Shuffle() *[16]uint8 { return row.shuffle }

func exportCell(cell *cCell) TraceCell {
	tc := TraceCell{
		Passthrough: cell.passthrough,
		RegOnly:     cell.regOnly,
		Insel:       cell.insel,
		Reg:         cell.reg,
	}
	if len(cell.steps) > 0 {
		tc.Steps = make([]TraceStep, len(cell.steps))
		for i := range cell.steps {
			st := &cell.steps[i]
			ts := TraceStep{
				Kind:  StepKind(st.kind),
				Src:   st.src,
				Aux:   st.aux,
				Flag:  st.flag,
				ImmER: st.immER,
				Imm:   st.imm,
			}
			if st.lut != nil {
				ts.S8 = &st.lut.S8
				ts.S4 = &st.lut.S4
			}
			if st.gf != nil {
				ts.GF = (*[4][256]uint32)(st.gf)
			}
			tc.Steps[i] = ts
		}
	}
	return tc
}
