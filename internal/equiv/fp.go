package equiv

import (
	"fmt"

	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/fastpath"
	"cobra/internal/isa"
)

// fpMaxSteps bounds the fastpath walk's tick count per validation, the
// counterpart of refMaxSteps.
const fpMaxSteps = 1 << 22

// gfRec is the recovered meaning of one compiled F-element table pair:
// either the (mode, consts) configuration whose defining GF(2^8) expression
// reproduces every entry, or — when no configuration does, i.e. the table
// is corrupted — the verbatim table interned for faithful witness
// evaluation.
type gfRec struct {
	ok     bool
	mode   uint32
	consts [4]uint8
	rawID  uint32
}

// fpWalker symbolically executes a compiled fastpath trace: the translated
// side of the validation. Control is fully static — the trace is a head
// segment followed by a repeating period — so the walker's control state is
// just (segment, position).
type fpWalker struct {
	a  *Arena
	tr *fastpath.Trace

	seg   int // 0: head, 1: period
	pos   int
	steps int

	inCount int
	reg     [][datapath.Cols]xid
	fb      [datapath.Cols]xid

	s8ids map[*[4][256]uint8]uint32
	s4ids map[*[4][128]uint8]uint32
	gfs   map[*[4][256]uint32]gfRec
}

func newFPWalker(a *Arena, tr *fastpath.Trace) (*fpWalker, error) {
	if len(tr.Period) == 0 {
		return nil, fmt.Errorf("equiv: trace has no periodic segment")
	}
	if len(tr.InitReg) != tr.Rows {
		return nil, fmt.Errorf("equiv: trace has %d register rows, want %d", len(tr.InitReg), tr.Rows)
	}
	w := &fpWalker{
		a:     a,
		tr:    tr,
		reg:   make([][datapath.Cols]xid, tr.Rows),
		s8ids: make(map[*[4][256]uint8]uint32),
		s4ids: make(map[*[4][128]uint8]uint32),
		gfs:   make(map[*[4][256]uint32]gfRec),
	}
	for r := range w.reg {
		for c := 0; c < datapath.Cols; c++ {
			w.reg[r][c] = a.Const(tr.InitReg[r][c])
		}
	}
	for c := 0; c < datapath.Cols; c++ {
		w.fb[c] = a.Const(tr.InitFB[c])
	}
	return w, nil
}

// nextOutput advances to the next emitted block: the head runs once, then
// the period repeats forever — the continuous-stream function the executor
// computes from its post-load state.
func (w *fpWalker) nextOutput() ([datapath.Cols]xid, error) {
	var zero [datapath.Cols]xid
	for {
		if w.steps >= fpMaxSteps {
			return zero, fmt.Errorf("equiv: fastpath walk exceeded %d cycles", fpMaxSteps)
		}
		w.steps++
		ticks := w.tr.Period
		if w.seg == 0 {
			ticks = w.tr.Head
		}
		if w.pos >= len(ticks) {
			w.seg, w.pos = 1, 0
			continue
		}
		ct := &ticks[w.pos]
		w.pos++
		out, emitted := w.tick(ct)
		if emitted {
			return out, nil
		}
	}
}

// tick mirrors Exec.runSeg for one compiled cycle.
func (w *fpWalker) tick(ct *fastpath.TraceTick) (out [datapath.Cols]xid, emitted bool) {
	if !ct.Enabled {
		return out, false
	}
	a := w.a
	var vec [datapath.Cols]xid
	switch ct.InMode {
	case isa.InExternal:
		for c := 0; c < datapath.Cols; c++ {
			vec[c] = a.Input(w.inCount, c)
		}
		w.inCount++
	case isa.InFeedback:
		vec = w.fb
	default:
		for c := 0; c < datapath.Cols; c++ {
			vec[c] = a.Const(ct.ERAMVec[c])
		}
	}
	for c := 0; c < datapath.Cols; c++ {
		vec[c] = traceWhiteExpr(a, vec[c], ct.WhiteIn[c])
	}
	vec = w.rows(ct.Rows, vec, true)
	for c := 0; c < datapath.Cols; c++ {
		vec[c] = traceWhiteExpr(a, vec[c], ct.WhiteOut[c])
	}
	w.fb = vec
	return vec, ct.Emit
}

// rows passes a row vector through a compiled row list, as the
// executor's evalRows does. With cycle set it mirrors one cycle of
// Exec.runSeg: a registered cell presents its stored value and stores the
// new one. Without, it mirrors one block's pass through the batch form
// (batchRows, or evalRows without registers for a batch of one): a
// registered cell passes on its own value, and the walker's registers are
// neither read nor written.
func (w *fpWalker) rows(rows []fastpath.TraceRow, vec [datapath.Cols]xid, cycle bool) [datapath.Cols]xid {
	a := w.a
	prev := vec
	for r := range rows {
		row := &rows[r]
		if row.Shuffle != nil {
			vec = symShuffle(a, vec, row.Shuffle)
		}
		rowIn := vec
		var next [datapath.Cols]xid
		for c := 0; c < datapath.Cols; c++ {
			cell := &row.Cells[c]
			if cell.Passthrough {
				next[c] = vec[c]
				continue
			}
			if cell.RegOnly && cycle {
				next[c] = w.reg[r][c]
				continue
			}
			var x xid
			if cell.Insel < 4 {
				x = vec[cell.Insel]
			} else {
				x = prev[cell.Insel-4]
			}
			x = w.stepsExpr(cell.Steps, x, &vec)
			if cell.Reg && cycle {
				// Mirrors the executor's in-place swap: reg[r][c] is read
				// only by this cell within the cycle.
				next[c] = w.reg[r][c]
				w.reg[r][c] = x
			} else {
				next[c] = x
			}
		}
		vec = next
		prev = rowIn
	}
	return vec
}

// stepsExpr mirrors evalSteps: one compiled element chain over expressions.
func (w *fpWalker) stepsExpr(steps []fastpath.TraceStep, x xid, vec *[datapath.Cols]xid) xid {
	a := w.a
	for i := range steps {
		st := &steps[i]
		switch st.Kind {
		case fastpath.StepXorImm:
			x = a.Xor(x, a.Const(st.Imm))
		case fastpath.StepXorBlk:
			x = a.Xor(x, preShiftExpr(a, vec[st.Src], st.Aux, st.Flag))
		case fastpath.StepAddImm:
			x = a.Add(x, a.Const(st.Imm), bits.Width(st.Aux))
		case fastpath.StepAddBlk:
			x = a.Add(x, vec[st.Src], bits.Width(st.Aux))
		case fastpath.StepRotlImm:
			x = a.Rotl(x, uint(st.Aux))
		case fastpath.StepRotlVar:
			x = a.RotlVar(x, vec[st.Src], st.Flag)
		case fastpath.StepShlImm:
			x = a.Shl(x, uint(st.Aux))
		case fastpath.StepShrImm:
			x = a.Shr(x, uint(st.Aux))
		case fastpath.StepShlVar:
			x = a.ShlVar(x, vec[st.Src], st.Flag)
		case fastpath.StepShrVar:
			x = a.ShrVar(x, vec[st.Src], st.Flag)
		case fastpath.StepAndImm:
			x = a.And(x, a.Const(st.Imm))
		case fastpath.StepAndBlk:
			x = a.And(x, preShiftExpr(a, vec[st.Src], st.Aux, st.Flag))
		case fastpath.StepOrImm:
			x = a.Or(x, a.Const(st.Imm))
		case fastpath.StepOrBlk:
			x = a.Or(x, preShiftExpr(a, vec[st.Src], st.Aux, st.Flag))
		case fastpath.StepSubImm:
			x = a.Sub(x, a.Const(st.Imm), bits.Width(st.Aux))
		case fastpath.StepSubBlk:
			x = a.Sub(x, vec[st.Src], bits.Width(st.Aux))
		case fastpath.StepS8:
			x = a.S8(x, w.s8id(&st.LUT.S8))
		case fastpath.StepS4:
			x = a.S4(x, w.s4id(&st.LUT.S4), uint32(st.Aux))
		case fastpath.StepS8to32:
			x = a.S8to32(x, w.s8id(&st.LUT.S8), uint32(st.Aux))
		case fastpath.StepMulImm:
			x = a.Mul(x, a.Const(st.Imm), bits.Width(st.Aux))
		case fastpath.StepMulBlk:
			x = a.Mul(x, vec[st.Src], bits.Width(st.Aux))
		case fastpath.StepSquare:
			x = a.Square(x)
		case fastpath.StepGFTab:
			x = w.gfExpr(x, st.GF)
		}
	}
	return x
}

// preShiftExpr mirrors the executor's preShift on an A-element operand.
func preShiftExpr(a *Arena, v xid, amt uint8, rot bool) xid {
	if amt == 0 {
		return v
	}
	if rot {
		return a.Rotl(v, uint(amt))
	}
	return a.Shl(v, uint(amt))
}

// gfExpr re-expands a compiled F-element contribution-table pair to its
// defining GF(2^8) expression so it can meet the reference side's GF node.
// A table no configuration explains — a corrupted table — falls back to a
// verbatim-table node, which is structurally distinct from every GF node
// and therefore reported as a mismatch, with witnesses evaluated through
// the corrupted entries exactly as the executor would compute them.
func (w *fpWalker) gfExpr(x xid, t *[4][256]uint32) xid {
	rec, ok := w.gfs[t]
	if !ok {
		rec = recoverGF(t)
		if !rec.ok {
			rec.rawID = w.a.InternGFRaw(t)
		}
		w.gfs[t] = rec
	}
	if rec.ok {
		return w.a.GF(x, rec.mode, rec.consts)
	}
	return w.a.GFRaw(x, rec.rawID)
}

// recoverGF tries the two generating expressions gfTables compiles from.
// Lane mode is tried first so a degenerate MDS circulant (c,0,0,0) — whose
// tables are identical to lane mode's — lands on the same canonical form
// the reference side's degenerate-MDS rewrite produces.
func recoverGF(t *[4][256]uint32) gfRec {
	var c [4]uint8
	for pos := range c {
		c[pos] = uint8(t[pos][1] >> (8 * uint(pos)))
	}
	lanes := true
	for pos := 0; pos < 4 && lanes; pos++ {
		for v := 0; v < 256; v++ {
			if t[pos][v] != uint32(bits.GFMul(uint8(v), c[pos]))<<(8*uint(pos)) {
				lanes = false
				break
			}
		}
	}
	if lanes {
		return gfRec{ok: true, mode: gfLanes, consts: c}
	}
	first := t[0][1]
	c = [4]uint8{uint8(first), uint8(first >> 24), uint8(first >> 16), uint8(first >> 8)}
	for pos := 0; pos < 4; pos++ {
		for v := 0; v < 256; v++ {
			var word uint32
			for row := 0; row < 4; row++ {
				word |= uint32(bits.GFMul(uint8(v), c[(pos-row+4)%4])) << (8 * uint(row))
			}
			if t[pos][v] != word {
				return gfRec{}
			}
		}
	}
	return gfRec{ok: true, mode: gfMDS, consts: c}
}

func (w *fpWalker) s8id(t *[4][256]uint8) uint32 {
	if id, ok := w.s8ids[t]; ok {
		return id
	}
	id := w.a.InternS8(t)
	w.s8ids[t] = id
	return id
}

func (w *fpWalker) s4id(t *[4][128]uint8) uint32 {
	if id, ok := w.s4ids[t]; ok {
		return id
	}
	id := w.a.InternS4(t)
	w.s4ids[t] = id
	return id
}

// ctlKey renders the walker's control state: (segment, position) pins all
// future compiled cycles, which are immutable.
func (w *fpWalker) ctlKey() string {
	return fmt.Sprintf("seg=%d pos=%d", w.seg, w.pos)
}

// carried returns the carried-data expressions, laid out as the reference
// walker's carried().
func (w *fpWalker) carried() []xid {
	ids := make([]xid, 0, len(w.reg)*datapath.Cols+datapath.Cols)
	for r := range w.reg {
		ids = append(ids, w.reg[r][:]...)
	}
	return append(ids, w.fb[:]...)
}

// setCarried overwrites the carried data (inductive generalization).
func (w *fpWalker) setCarried(ids []xid) {
	for r := range w.reg {
		copy(w.reg[r][:], ids[r*datapath.Cols:])
	}
	copy(w.fb[:], ids[len(w.reg)*datapath.Cols:])
}

// traceWhiteExpr applies one compiled whitening operation (the executor's
// TraceWhite.apply).
func traceWhiteExpr(a *Arena, x xid, wh fastpath.TraceWhite) xid {
	switch wh.Mode {
	case isa.WhiteXor:
		return a.Xor(x, a.Const(wh.Key))
	case isa.WhiteAdd:
		return a.Add(x, a.Const(wh.Key), bits.W32)
	default:
		return x
	}
}
