package fastpath

import (
	"fmt"
	"slices"

	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/rce"
	"cobra/internal/sim"
)

// Compile records one steady-state bulk-encryption run of the program,
// proves the recorded cycle stream periodic, compiles it into a flat
// per-cycle op-list, and self-checks the result against the recording
// before returning it. A program whose bulk phase is not a fixed-period
// configuration schedule returns an error wrapping ErrNotSteady; callers
// fall back to the interpreter.
func Compile(src Source) (*Exec, error) {
	rec, err := record(src)
	if err != nil {
		return nil, err
	}

	outs := rec.outputTicks()
	if len(outs) != recBlocks {
		return nil, fmt.Errorf("%w: %s: recorded %d output cycles, want %d",
			ErrNotSteady, src.Name, len(outs), recBlocks)
	}
	first, last := outs[0], len(rec.ticks)-1

	// Find the steady period: the smallest P such that every cycle after
	// the first output repeats — full control snapshot and attributed
	// counters — P cycles later, across the whole recorded suffix. One such
	// equality already proves the schedule periodic forever (the snapshot
	// is the machine's entire control state and control is data-independent
	// — see the package doc); the recorded suffix gives several periods of
	// redundancy. Iterative programs have one output per period; streaming
	// loops emit every cycle while the sequencer alternates through the
	// nop/jmp idle loop, giving several outputs per period.
	plen := 0
	for p := 1; p <= (last-first)/2; p++ {
		ok := true
		for t := first + 1; t+p <= last; t++ {
			if !equalSnap(rec.ticks[t], rec.ticks[t+p]) || rec.attrib(t) != rec.attrib(t+p) {
				ok = false
				break
			}
		}
		if ok {
			plen = p
			break
		}
	}
	if plen == 0 {
		return nil, fmt.Errorf("%w: %s: no repeating cycle period within %d recorded cycles after the first output",
			ErrNotSteady, src.Name, last-first)
	}

	tr := &Trace{
		Name:          src.Name,
		Rows:          src.Geometry.Rows,
		Streaming:     src.Streaming,
		PipelineDepth: src.PipelineDepth,
		InitReg:       rec.initReg,
		InitFB:        rec.initFB,
	}
	tc := &tickCompiler{name: src.Name, rec: rec, luts: snapshotLUTs(rec),
		gfCache: make(map[[5]uint8]*[4][256]uint32)}
	if tr.Head, err = tc.compile(0, first+1); err != nil {
		return nil, err
	}
	if tr.Period, err = tc.compile(first+1, first+1+plen); err != nil {
		return nil, err
	}
	if !tr.Head[len(tr.Head)-1].Emit || countEmits(tr.Head) != 1 {
		return nil, fmt.Errorf("%w: %s: head segment does not end at its single output", ErrNotSteady, src.Name)
	}
	if countEmits(tr.Period) == 0 {
		// Unreachable given the suffix held outputs, but it is the
		// executor's termination guarantee, so assert it.
		return nil, fmt.Errorf("%w: %s: steady period emits no output", ErrNotSteady, src.Name)
	}

	if tc.configs == 1 {
		tr.Batch = batchForm(tr)
	}
	if err := selfCheck(tr, src, rec); err != nil {
		return nil, err
	}
	return newExec(tr), nil
}

// batchForm returns the batch form of a streaming trace whose enabled
// cycles all run one row list, or nil when the trace does not meet the
// rest of the conditions in the package doc.
func batchForm(tr *Trace) *TraceBatch {
	depth := tr.PipelineDepth
	if !tr.Streaming || depth < 1 {
		return nil
	}
	var b *TraceBatch
	enabled := 0
	for seg, ticks := range [][]TraceTick{tr.Head, tr.Period} {
		for i := range ticks {
			ct := &ticks[i]
			if !ct.Enabled {
				continue
			}
			// Block j−depth emits at enabled cycle j: the head ends at its
			// single output, so that is its enabled cycle depth, and every
			// later enabled cycle emits.
			if ct.InMode != isa.InExternal || ct.Emit != (seg == 1 || enabled == depth) {
				return nil
			}
			enabled++
			if b == nil {
				b = &TraceBatch{WhiteIn: ct.WhiteIn, WhiteOut: ct.WhiteOut, Rows: ct.Rows}
			} else if ct.WhiteIn != b.WhiteIn || ct.WhiteOut != b.WhiteOut {
				return nil
			}
		}
	}
	if b == nil {
		return nil
	}
	regRows := 0
	for r := range b.Rows {
		n := 0
		for c := range b.Rows[r].Cells {
			cell := &b.Rows[r].Cells[c]
			if cell.RegOnly {
				return nil
			}
			if cell.Reg {
				n++
			}
		}
		switch n {
		case 0:
			continue
		case datapath.Cols:
			regRows++
		default:
			return nil
		}
		if r+1 == len(b.Rows) {
			continue
		}
		for c := range b.Rows[r+1].Cells {
			if b.Rows[r+1].Cells[c].Insel >= 4 {
				return nil
			}
		}
	}
	if regRows != depth {
		return nil
	}
	return b
}

func countEmits(ticks []TraceTick) int {
	n := 0
	for i := range ticks {
		if ticks[i].Emit {
			n++
		}
	}
	return n
}

// attrib returns the counter movement attributed to tick t under the
// interpreter's stop-after-output semantics: the instructions executed
// since the previous cycle plus the cycle's own counters. Attribution
// telescopes, so any run of consecutive ticks sums to exactly the
// sim.Stats delta the interpreter reports when it stops right after the
// run's last tick.
func (rec *recording) attrib(t int) sim.Stats {
	pre := rec.ticks[t].preStats
	post := rec.final
	if t+1 < len(rec.ticks) {
		post = rec.ticks[t+1].preStats
	}
	var prevInstr, prevNops int
	if t > 0 {
		prevInstr = rec.ticks[t-1].preStats.Instructions
		prevNops = rec.ticks[t-1].preStats.Nops
	}
	return sim.Stats{
		Cycles:       1,
		Advanced:     post.Advanced - pre.Advanced,
		Stalled:      post.Stalled - pre.Stalled,
		Instructions: pre.Instructions - prevInstr,
		Nops:         pre.Nops - prevNops,
		BlocksIn:     post.BlocksIn - pre.BlocksIn,
		BlocksOut:    post.BlocksOut - pre.BlocksOut,
	}
}

// snapshotLUTs copies every RCE's LUT storage once; the hazard watcher
// guarantees no LUT load executed during the recorded run, so the copies
// are valid for every compiled cycle.
func snapshotLUTs(rec *recording) []*rce.LUTStore {
	rows := rec.m.Array.Geometry().Rows
	luts := make([]*rce.LUTStore, rows*datapath.Cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < datapath.Cols; c++ {
			lut := rec.m.Array.RCE(r, c).LUT // value copy
			luts[r*datapath.Cols+c] = &lut
		}
	}
	return luts
}

// selfCheck replays the recorded inputs through the freshly compiled trace,
// on the whole array and then on its batch form if it has one, and
// requires bit-identical outputs and counters before the trace is
// released — the last line of the equivalence proof, and a guard against
// compiler bugs on programs outside the test matrix. On the batch form a
// 1-block call must reproduce the first output too: blocks do not
// interact there, and one block takes the scalar chain rather than the
// op-major loops. selfCheck is the one place that writes tr after
// construction: it tries each form in turn and leaves the last, the proven
// batch form, in place.
func selfCheck(tr *Trace, src Source, rec *recording) error {
	forms := []*TraceBatch{nil}
	if tr.Batch != nil {
		forms = append(forms, tr.Batch)
	}
	name := tr.Name
	in := recordInputs(recBlocks, src)
	dst := make([]bits.Block128, recBlocks)
	got := rec.m.Outputs()
	for _, tr.Batch = range forms {
		how := "whole-array"
		if tr.Batch != nil {
			how = "batch"
		}
		st, err := newExec(tr).EncryptInto(dst, in[:recBlocks])
		if err != nil {
			return fmt.Errorf("%w: %s: %s self-check: %v", ErrNotSteady, name, how, err)
		}
		if st != rec.final {
			return fmt.Errorf("%w: %s: %s self-check counters %+v != recorded %+v",
				ErrNotSteady, name, how, st, rec.final)
		}
		for i := range dst {
			if dst[i] != got[i] {
				return fmt.Errorf("%w: %s: %s self-check output %d mismatch", ErrNotSteady, name, how, i)
			}
		}
		if tr.Batch == nil {
			continue
		}
		if _, err := newExec(tr).EncryptInto(dst[:1], in[:1]); err != nil || dst[0] != got[0] {
			return fmt.Errorf("%w: %s: batch self-check of a 1-block call: output mismatch (%v)", ErrNotSteady, name, err)
		}
	}
	return nil
}

// tickCompiler translates recorded cycles into executable form. It
// compiles each array configuration once: an enabled cycle whose recorded
// RCE snapshots and shufflers equal those of the last compiled enabled
// cycle takes that cycle's rows, the same slice.
type tickCompiler struct {
	name    string
	rec     *recording
	luts    []*rce.LUTStore
	gfCache map[[5]uint8]*[4][256]uint32

	last    *tickSnap  // the last compiled enabled cycle
	rows    []TraceRow // its rows
	configs int        // distinct row lists compiled
}

// compile translates recorded cycles [from, to).
func (tc *tickCompiler) compile(from, to int) ([]TraceTick, error) {
	name, rec := tc.name, tc.rec
	out := make([]TraceTick, 0, to-from)
	for t := from; t < to; t++ {
		s := rec.ticks[t]
		at := rec.attrib(t)
		ct := TraceTick{
			Enabled: s.enabled,
			InMode:  s.inMode,
			ERAMVec: s.eramVec,
			Emit:    at.BlocksOut > 0,
			stats:   at,
		}
		if !s.enabled {
			// Stall cycle: nothing moves; only the counters advance.
			if at.Advanced != 0 || ct.Emit {
				return nil, fmt.Errorf("%w: %s: disabled cycle %d advanced", ErrNotSteady, name, t)
			}
			out = append(out, ct)
			continue
		}
		if at.Advanced != 1 {
			return nil, fmt.Errorf("%w: %s: enabled cycle %d stalled (input starvation in recording)",
				ErrNotSteady, name, t)
		}
		if (at.BlocksIn > 0) != (s.inMode == isa.InExternal) {
			return nil, fmt.Errorf("%w: %s: cycle %d consumption disagrees with input mode",
				ErrNotSteady, name, t)
		}
		if ct.Emit != (s.flags&isa.FlagDValid != 0) {
			return nil, fmt.Errorf("%w: %s: cycle %d emission disagrees with data-valid flag",
				ErrNotSteady, name, t)
		}
		for c := 0; c < datapath.Cols; c++ {
			if s.capture[c] {
				return nil, fmt.Errorf("%w: %s: capture port active at cycle %d", ErrNotSteady, name, t)
			}
			w := TraceWhite{Mode: s.white[c].Mode, Key: s.white[c].Key}
			if s.white[c].In {
				ct.WhiteIn[c] = w
			} else {
				ct.WhiteOut[c] = w
			}
		}
		if tc.last == nil || !sameArray(s, tc.last) {
			tc.rows = tc.compileRows(s)
			tc.configs++
		}
		tc.last = s
		ct.Rows = tc.rows
		out = append(out, ct)
	}
	return out, nil
}

// sameArray reports whether two cycle snapshots hold the same array
// configuration: every RCE's control state and every shuffler.
func sameArray(a, b *tickSnap) bool {
	return slices.Equal(a.rces, b.rces) && slices.Equal(a.shuf, b.shuf)
}

// compileRows translates one cycle's array configuration.
func (tc *tickCompiler) compileRows(s *tickSnap) []TraceRow {
	rows := make([]TraceRow, tc.rec.m.Array.Geometry().Rows)
	for r := range rows {
		if r%2 == 1 {
			perm := s.shuf[r/2]
			if !identityPerm(&perm) {
				p := perm
				rows[r].Shuffle = &p
			}
		}
		for c := 0; c < datapath.Cols; c++ {
			idx := r*datapath.Cols + c
			rows[r].Cells[c] = compileCell(s.rces[idx], c, tc.luts[idx], tc.gfCache)
		}
	}
	return rows
}

func identityPerm(p *[16]uint8) bool {
	for i, v := range p {
		if int(v) != i {
			return false
		}
	}
	return true
}

// gfTables builds (or reuses) the tables of one F configuration, its
// compiled form: tab[pos][v] is input byte v at byte position pos
// contributing to the output word. Both F modes fold to this form — lane-
// wise constant multiplication contributes only to its own byte, the
// circulant MDS multiply to all four — turning the bit-serial,
// data-dependent GFMul into four table reads whose XOR reproduces
// bits.GFMulWord (lane mode) and bits.GFMDSColumn (MDS mode: byte col
// contributes GFMul(v, c[(col-row+4)%4]) to each output row) exactly.
func gfTables(op rce.Op, c [4]uint8, cache map[[5]uint8]*[4][256]uint32) *[4][256]uint32 {
	key := [5]uint8{uint8(op), c[0], c[1], c[2], c[3]}
	if t, ok := cache[key]; ok {
		return t
	}
	t := new([4][256]uint32)
	for pos := 0; pos < 4; pos++ {
		for v := 0; v < 256; v++ {
			var word uint32
			if op == rce.OpGFLanes {
				word = uint32(bits.GFMul(uint8(v), c[pos])) << (8 * uint(pos))
			} else {
				for row := 0; row < 4; row++ {
					word |= uint32(bits.GFMul(uint8(v), c[(pos-row+4)%4])) << (8 * uint(row))
				}
			}
			t[pos][v] = word
		}
	}
	cache[key] = t
	return t
}

// immKind is the step kind of each shift and Boolean operation with a
// folded immediate operand; its block- and amount-operand kinds sit at a
// fixed offset in the step kind list.
var immKind = [...]StepKind{
	rce.OpShl: StepShlImm, rce.OpShr: StepShrImm, rce.OpRotl: StepRotlImm,
	rce.OpXor: StepXorImm, rce.OpAnd: StepAndImm, rce.OpOr: StepOrImm,
}

// compileCell translates one RCE's per-cycle configuration into its step
// list, walking its decoded chain and folding everything constant: the
// immediates, the eRAM reads (ImmER marks a value folded from one: it is
// key-schedule material, a provenance the side-channel analyzer in
// package sca needs after the fold erases the INER source), E amount
// negation and A operand pre-shifts.
func compileCell(rs rceSnap, col int, lut *rce.LUTStore, gfCache map[[5]uint8]*[4][256]uint32) TraceCell {
	ch := rce.Decode(&rs.cfg, datapath.MulColumn(col))
	cell := TraceCell{Reg: rs.cfg.Reg.Enabled, Insel: uint8(datapath.Tap(col, ch.Insel))}
	if cell.Reg && rs.hold {
		// Frozen registered RCE: presents its stored value, latches nothing.
		cell.RegOnly = true
		return cell
	}
	for _, s := range ch.Steps() {
		// The operand: a block of the row vector, or a folded immediate.
		var blk uint8
		imm, isImm, fromER := s.Operand.Imm, true, false
		switch s.Operand.From {
		case rce.FromPort:
			blk, isImm = uint8(datapath.Tap(col, s.Operand.Port)), false
		case rce.FromERAM:
			imm, fromER = rs.iner, true
		}
		switch s.Op {
		case rce.OpShl, rce.OpShr, rce.OpRotl:
			kImm := immKind[s.Op]
			if !isImm {
				cell.Steps = append(cell.Steps, TraceStep{Kind: kImm - StepShlImm + StepShlVar, Src: blk, Flag: s.Neg})
				continue
			}
			// A zero rotate is the identity, but a key-sourced amount keeps
			// its step: the immER provenance must survive for the
			// side-channel profile.
			if amt := s.Amount(imm); amt != 0 || s.Op != rce.OpRotl || fromER {
				cell.Steps = append(cell.Steps, TraceStep{Kind: kImm, Aux: uint8(amt), ImmER: fromER})
			}
		case rce.OpXor, rce.OpAnd, rce.OpOr:
			kImm := immKind[s.Op]
			if isImm {
				cell.Steps = append(cell.Steps, TraceStep{Kind: kImm, Imm: s.PreShifted(imm), ImmER: fromER})
			} else {
				cell.Steps = append(cell.Steps, TraceStep{
					Kind: kImm - StepXorImm + StepXorBlk, Src: blk, Aux: s.Shift & 31, Flag: s.Rot,
				})
			}
		case rce.OpS8:
			cell.Steps = append(cell.Steps, TraceStep{Kind: StepS8, LUT: lut})
		case rce.OpS4:
			cell.Steps = append(cell.Steps, TraceStep{Kind: StepS4, LUT: lut, Aux: s.Sel})
		case rce.OpS8to32:
			cell.Steps = append(cell.Steps, TraceStep{Kind: StepS8to32, LUT: lut, Aux: s.Sel})
		case rce.OpMul:
			if isImm {
				cell.Steps = append(cell.Steps, TraceStep{Kind: StepMulImm, Imm: imm, Aux: uint8(s.Width), ImmER: fromER})
			} else {
				cell.Steps = append(cell.Steps, TraceStep{Kind: StepMulBlk, Src: blk, Aux: uint8(s.Width)})
			}
		case rce.OpSquare:
			cell.Steps = append(cell.Steps, TraceStep{Kind: StepSquare})
		case rce.OpAdd, rce.OpSub:
			kImm, kBlk := StepAddImm, StepAddBlk
			if s.Op == rce.OpSub {
				kImm, kBlk = StepSubImm, StepSubBlk
			}
			if isImm {
				cell.Steps = append(cell.Steps, TraceStep{Kind: kImm, Imm: imm, Aux: uint8(s.Width) & 3, ImmER: fromER})
			} else {
				cell.Steps = append(cell.Steps, TraceStep{Kind: kBlk, Src: blk, Aux: uint8(s.Width) & 3})
			}
		case rce.OpGFLanes, rce.OpGFMDS:
			cell.Steps = append(cell.Steps, TraceStep{Kind: StepGFTab, GF: gfTables(s.Op, s.Consts, gfCache)})
		}
	}

	if len(cell.Steps) == 0 && cell.Insel == uint8(col) && !cell.Reg {
		cell.Passthrough = true
	}
	return cell
}
