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

	c := &compiled{
		src:     src,
		rows:    src.Geometry.Rows,
		initReg: rec.initReg,
		initFB:  rec.initFB,
	}
	luts := snapshotLUTs(rec)
	gfCache := make(map[[5]uint8]*gfTab)
	if c.head, err = c.compileTicks(rec, 0, first+1, luts, gfCache); err != nil {
		return nil, err
	}
	if c.period, err = c.compileTicks(rec, first+1, first+1+plen, luts, gfCache); err != nil {
		return nil, err
	}
	if !c.head[len(c.head)-1].emit || countEmits(c.head) != 1 {
		return nil, fmt.Errorf("%w: %s: head segment does not end at its single output", ErrNotSteady, src.Name)
	}
	if countEmits(c.period) == 0 {
		// Unreachable given the suffix held outputs, but it is the
		// executor's termination guarantee, so assert it.
		return nil, fmt.Errorf("%w: %s: steady period emits no output", ErrNotSteady, src.Name)
	}

	c.bands = c.bandLayout()
	if err := selfCheck(c, rec); err != nil {
		return nil, err
	}
	return newExec(c), nil
}

// bandLayout derives the pipeline band layout of a streaming trace from
// its compiled cycles (the conditions are in the package doc): the first
// row of each of the PipelineDepth+1 bands, then the row count. A trace
// that does not prove a layout gets nil and evaluates the whole array.
func (c *compiled) bandLayout() []int {
	depth := c.src.PipelineDepth
	if !c.src.Streaming || depth < 1 {
		return nil
	}
	var regRows, regs []int
	enabled := 0
	for seg, ticks := range [][]cTick{c.head, c.period} {
		for i := range ticks {
			ct := &ticks[i]
			if !ct.enabled {
				continue
			}
			// Block j−depth emits at enabled cycle j: the head ends at its
			// single output, so that is its enabled cycle depth, and every
			// later enabled cycle emits.
			if ct.inMode != isa.InExternal || ct.emit != (seg == 1 || enabled == depth) {
				return nil
			}
			enabled++
			var ok bool
			regs, ok = wholeRegRows(ct, regs[:0])
			if !ok || len(regs) != depth || (regRows != nil && !slices.Equal(regs, regRows)) {
				return nil
			}
			if regRows == nil {
				regRows = slices.Clone(regs)
			}
			for _, r := range regs {
				if r+1 == len(ct.rows) {
					continue
				}
				for c := range ct.rows[r+1].cells {
					if ct.rows[r+1].cells[c].insel >= 4 {
						return nil
					}
				}
			}
		}
	}
	bands := make([]int, 1, depth+2)
	for _, r := range regRows {
		bands = append(bands, r+1)
	}
	return append(bands, c.rows)
}

// wholeRegRows appends the registered rows of an enabled cycle to regs; ok
// is false when a row registers only some of its cells or a register
// holds.
func wholeRegRows(ct *cTick, regs []int) ([]int, bool) {
	for r := range ct.rows {
		n := 0
		for c := range ct.rows[r].cells {
			cell := &ct.rows[r].cells[c]
			if cell.regOnly {
				return regs, false
			}
			if cell.reg {
				n++
			}
		}
		switch n {
		case 0:
		case datapath.Cols:
			regs = append(regs, r)
		default:
			return regs, false
		}
	}
	return regs, true
}

func countEmits(ticks []cTick) int {
	n := 0
	for i := range ticks {
		if ticks[i].emit {
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
// on the whole array and then on its band layout if it has one, and
// requires bit-identical outputs and counters before the trace is
// released — the last line of the equivalence proof, and a guard against
// compiler bugs on programs outside the test matrix. It is the one place
// that writes c after construction: it tries each layout in turn and
// leaves the last, the proven band layout, in place.
func selfCheck(c *compiled, rec *recording) error {
	layouts := [][]int{nil}
	if c.bands != nil {
		layouts = append(layouts, c.bands)
	}
	name := c.src.Name
	in := recordInputs(recBlocks, c.src)
	dst := make([]bits.Block128, recBlocks)
	got := rec.m.Outputs()
	for _, c.bands = range layouts {
		how := "whole-array"
		if c.bands != nil {
			how = "banded"
		}
		st, err := newExec(c).EncryptInto(dst, in[:recBlocks])
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
	}
	return nil
}

// --- compiled representation ---------------------------------------------------

// step kinds: one per executable element operation, with constant operands
// (immediates, resolved eRAM reads, amount negation, operand pre-shifts)
// folded at compile time.
const (
	stShlImm uint8 = iota
	stShrImm
	stRotlImm
	stShlVar // amount from low 5 bits of a block, Neg folded via flag
	stShrVar
	stRotlVar
	stXorImm
	stAndImm
	stOrImm
	stXorBlk
	stAndBlk
	stOrBlk
	stAddImm
	stSubImm
	stAddBlk
	stSubBlk
	stS8
	stS4
	stS8to32
	stMulImm
	stMulBlk
	stSquare
	stGFTab
)

// gfTab is a compiled F element: per input-byte-position tables carrying
// that byte's contribution to the whole output word, XOR-combined at run
// time. Both F modes fold to this form — lane-wise constant multiplication
// contributes only to its own byte, the circulant MDS multiply to all four
// — turning the bit-serial, data-dependent GFMul into four table reads.
type gfTab [4][256]uint32

// step is one compiled element operation of an RCE's chain.
type step struct {
	kind  uint8
	src   uint8  // block index for *Blk/*Var kinds
	aux   uint8  // shift amount / B-D width / C page or byte select
	flag  bool   // E: negate amount; A: operand pre-shift is a rotate
	immER bool   // imm was folded from an eRAM read (key provenance)
	imm   uint32 // folded immediate operand
	lut   *rce.LUTStore
	gf    *gfTab // F element tables
}

// cCell is one RCE at one cycle.
type cCell struct {
	// passthrough: identity configuration, out = vec[col] with no register;
	// the executor skips the cell entirely.
	passthrough bool
	// regOnly: registered and held — out = reg, nothing evaluated.
	regOnly bool
	insel   uint8 // 0..3: current row vector block; 4..7: prev-row block−4
	reg     bool
	steps   []step
}

// cRow is one array row at one cycle.
type cRow struct {
	shuffle *[16]uint8 // byte shuffler before this row (nil: none/identity)
	cells   [datapath.Cols]cCell
}

// cWhite is one column's whitening operation at one stage.
type cWhite struct {
	mode isa.WhiteMode
	key  uint32
}

func (w cWhite) apply(x uint32) uint32 {
	switch w.mode {
	case isa.WhiteXor:
		return x ^ w.key
	case isa.WhiteAdd:
		return x + w.key
	default:
		return x
	}
}

// cTick is one compiled datapath cycle: the resolved array configuration
// plus the interpreter counters attributed to the cycle.
type cTick struct {
	enabled  bool
	inMode   isa.InMuxMode
	eramVec  bits.Block128
	emit     bool
	stats    sim.Stats
	whiteIn  [datapath.Cols]cWhite
	whiteOut [datapath.Cols]cWhite
	anyWhite bool
	rows     []cRow
}

// compileTicks translates recorded cycles [from, to) into executable form.
func (c *compiled) compileTicks(rec *recording, from, to int, luts []*rce.LUTStore, gfCache map[[5]uint8]*gfTab) ([]cTick, error) {
	name := c.src.Name
	out := make([]cTick, 0, to-from)
	for t := from; t < to; t++ {
		s := rec.ticks[t]
		at := rec.attrib(t)
		ct := cTick{
			enabled: s.enabled,
			inMode:  s.inMode,
			eramVec: s.eramVec,
			emit:    at.BlocksOut > 0,
			stats:   at,
		}
		if !s.enabled {
			// Stall cycle: nothing moves; only the counters advance.
			if at.Advanced != 0 || ct.emit {
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
		if ct.emit != (s.flags&isa.FlagDValid != 0) {
			return nil, fmt.Errorf("%w: %s: cycle %d emission disagrees with data-valid flag",
				ErrNotSteady, name, t)
		}
		for c := 0; c < datapath.Cols; c++ {
			if s.capture[c] {
				return nil, fmt.Errorf("%w: %s: capture port active at cycle %d", ErrNotSteady, name, t)
			}
			w := cWhite{mode: s.white[c].Mode, key: s.white[c].Key}
			if s.white[c].In {
				ct.whiteIn[c] = w
			} else {
				ct.whiteOut[c] = w
			}
			if w.mode != isa.WhiteOff {
				ct.anyWhite = true
			}
		}
		rows := rec.m.Array.Geometry().Rows
		ct.rows = make([]cRow, rows)
		for r := 0; r < rows; r++ {
			if r%2 == 1 {
				perm := s.shuf[r/2]
				if !identityPerm(&perm) {
					p := perm
					ct.rows[r].shuffle = &p
				}
			}
			for c := 0; c < datapath.Cols; c++ {
				idx := r*datapath.Cols + c
				ct.rows[r].cells[c] = compileCell(s.rces[idx], c, luts[idx], gfCache)
			}
		}
		out = append(out, ct)
	}
	return out, nil
}

func identityPerm(p *[16]uint8) bool {
	for i, v := range p {
		if int(v) != i {
			return false
		}
	}
	return true
}

// gfTables builds (or reuses) the table pair for one F configuration:
// tab[pos][v] is input byte v at byte position pos contributing to the
// output word. XORing the four lookups reproduces bits.GFMulWord (lane
// mode: each byte contributes only to its own lane) and bits.GFMDSColumn
// (MDS mode: byte col contributes GFMul(v, c[(col-row+4)%4]) to each output
// row) exactly.
func gfTables(op rce.Op, c [4]uint8, cache map[[5]uint8]*gfTab) *gfTab {
	key := [5]uint8{uint8(op), c[0], c[1], c[2], c[3]}
	if t, ok := cache[key]; ok {
		return t
	}
	t := new(gfTab)
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
var immKind = [...]uint8{
	rce.OpShl: stShlImm, rce.OpShr: stShrImm, rce.OpRotl: stRotlImm,
	rce.OpXor: stXorImm, rce.OpAnd: stAndImm, rce.OpOr: stOrImm,
}

// compileCell translates one RCE's per-cycle configuration into its step
// list, walking its decoded chain and folding everything constant: the
// immediates, the eRAM reads (immER marks a value folded from one: it is
// key-schedule material, a provenance the side-channel analyzer in
// package sca needs after the fold erases the INER source), E amount
// negation and A operand pre-shifts.
func compileCell(rs rceSnap, col int, lut *rce.LUTStore, gfCache map[[5]uint8]*gfTab) cCell {
	ch := rce.Decode(&rs.cfg, datapath.MulColumn(col))
	cell := cCell{reg: rs.cfg.Reg.Enabled, insel: uint8(datapath.Tap(col, ch.Insel))}
	if cell.reg && rs.hold {
		// Frozen registered RCE: presents its stored value, latches nothing.
		cell.regOnly = true
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
				cell.steps = append(cell.steps, step{kind: kImm - stShlImm + stShlVar, src: blk, flag: s.Neg})
				continue
			}
			// A zero rotate is the identity, but a key-sourced amount keeps
			// its step: the immER provenance must survive for the
			// side-channel profile.
			if amt := s.Amount(imm); amt != 0 || s.Op != rce.OpRotl || fromER {
				cell.steps = append(cell.steps, step{kind: kImm, aux: uint8(amt), immER: fromER})
			}
		case rce.OpXor, rce.OpAnd, rce.OpOr:
			kImm := immKind[s.Op]
			if isImm {
				cell.steps = append(cell.steps, step{kind: kImm, imm: s.PreShifted(imm), immER: fromER})
			} else {
				cell.steps = append(cell.steps, step{
					kind: kImm - stXorImm + stXorBlk, src: blk, aux: s.Shift & 31, flag: s.Rot,
				})
			}
		case rce.OpS8:
			cell.steps = append(cell.steps, step{kind: stS8, lut: lut})
		case rce.OpS4:
			cell.steps = append(cell.steps, step{kind: stS4, lut: lut, aux: s.Sel})
		case rce.OpS8to32:
			cell.steps = append(cell.steps, step{kind: stS8to32, lut: lut, aux: s.Sel})
		case rce.OpMul:
			if isImm {
				cell.steps = append(cell.steps, step{kind: stMulImm, imm: imm, aux: uint8(s.Width), immER: fromER})
			} else {
				cell.steps = append(cell.steps, step{kind: stMulBlk, src: blk, aux: uint8(s.Width)})
			}
		case rce.OpSquare:
			cell.steps = append(cell.steps, step{kind: stSquare})
		case rce.OpAdd, rce.OpSub:
			kImm, kBlk := stAddImm, stAddBlk
			if s.Op == rce.OpSub {
				kImm, kBlk = stSubImm, stSubBlk
			}
			if isImm {
				cell.steps = append(cell.steps, step{kind: kImm, imm: imm, aux: uint8(s.Width) & 3, immER: fromER})
			} else {
				cell.steps = append(cell.steps, step{kind: kBlk, src: blk, aux: uint8(s.Width) & 3})
			}
		case rce.OpGFLanes, rce.OpGFMDS:
			cell.steps = append(cell.steps, step{kind: stGFTab, gf: gfTables(s.Op, s.Consts, gfCache)})
		}
	}

	if len(cell.steps) == 0 && cell.insel == uint8(col) && !cell.reg {
		cell.passthrough = true
	}
	return cell
}
