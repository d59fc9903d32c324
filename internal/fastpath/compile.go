package fastpath

import (
	"fmt"

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

	e := &Exec{
		src:     src,
		rows:    src.Geometry.Rows,
		initReg: rec.initReg,
		initFB:  rec.initFB,
	}
	e.reg = make([][datapath.Cols]uint32, e.rows)
	copy(e.reg, e.initReg)
	e.fb = e.initFB

	luts := snapshotLUTs(rec)
	gfCache := make(map[[5]uint8]*gfTab)
	if e.head, err = e.compileTicks(rec, 0, first+1, luts, gfCache); err != nil {
		return nil, err
	}
	if e.period, err = e.compileTicks(rec, first+1, first+1+plen, luts, gfCache); err != nil {
		return nil, err
	}
	if !e.head[len(e.head)-1].emit || countEmits(e.head) != 1 {
		return nil, fmt.Errorf("%w: %s: head segment does not end at its single output", ErrNotSteady, src.Name)
	}
	if countEmits(e.period) == 0 {
		// Unreachable given the suffix held outputs, but it is the
		// executor's termination guarantee, so assert it.
		return nil, fmt.Errorf("%w: %s: steady period emits no output", ErrNotSteady, src.Name)
	}

	if err := selfCheck(e, rec, src); err != nil {
		return nil, err
	}
	e.Reset()
	return e, nil
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

// selfCheck replays the recorded inputs through the freshly compiled trace
// and requires bit-identical outputs and counters before the executor is
// released — the last line of the equivalence proof, and a guard against
// compiler bugs on programs outside the test matrix.
func selfCheck(e *Exec, rec *recording, src Source) error {
	in := recordInputs(recBlocks, src)
	dst := make([]bits.Block128, recBlocks)
	st, err := e.EncryptInto(dst, in[:recBlocks])
	if err != nil {
		return fmt.Errorf("%w: %s: self-check: %v", ErrNotSteady, src.Name, err)
	}
	if st != rec.final {
		return fmt.Errorf("%w: %s: self-check counters %+v != recorded %+v",
			ErrNotSteady, src.Name, st, rec.final)
	}
	got := rec.m.Outputs()
	for i := range dst {
		if dst[i] != got[i] {
			return fmt.Errorf("%w: %s: self-check output %d mismatch", ErrNotSteady, src.Name, i)
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
func (e *Exec) compileTicks(rec *recording, from, to int, luts []*rce.LUTStore, gfCache map[[5]uint8]*gfTab) ([]cTick, error) {
	name := e.src.Name
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

// operandOf resolves an element operand source to either a folded
// immediate (imm=true) or a block index of the current row vector. fromER
// marks immediates folded from an eRAM read: the value is key-schedule
// material, a provenance the side-channel analyzer (package sca) needs
// after the fold erases the SrcINER encoding.
func operandOf(src isa.Src, imm uint32, col int, iner uint32) (isImm bool, val uint32, blk uint8, fromER bool) {
	switch src {
	case isa.SrcINA:
		return false, 0, uint8(col), false
	case isa.SrcINB:
		return false, 0, uint8(secondaryBlock(col, 0)), false
	case isa.SrcINC:
		return false, 0, uint8(secondaryBlock(col, 1)), false
	case isa.SrcIND:
		return false, 0, uint8(secondaryBlock(col, 2)), false
	case isa.SrcINER:
		return true, iner, 0, true
	case isa.SrcImm:
		return true, imm, 0, false
	default:
		// Undefined 3-bit encodings select 0, matching rce.Inputs.Select.
		return true, 0, 0, false
	}
}

// gfTables builds (or reuses) the table pair for one F configuration:
// tab[pos][v] is input byte v at byte position pos contributing to the
// output word. XORing the four lookups reproduces bits.GFMulWord (lane
// mode: each byte contributes only to its own lane) and bits.GFMDSColumn
// (MDS mode: byte col contributes GFMul(v, c[(col-row+4)%4]) to each output
// row) exactly.
func gfTables(mode isa.FMode, c [4]uint8, cache map[[5]uint8]*gfTab) *gfTab {
	key := [5]uint8{uint8(mode), c[0], c[1], c[2], c[3]}
	if t, ok := cache[key]; ok {
		return t
	}
	t := new(gfTab)
	for pos := 0; pos < 4; pos++ {
		for v := 0; v < 256; v++ {
			var word uint32
			if mode == isa.FLanes {
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

// compileCell translates one RCE's per-cycle configuration into its step
// list, folding everything constant.
func compileCell(rs rceSnap, col int, lut *rce.LUTStore, gfCache map[[5]uint8]*gfTab) cCell {
	cfg := rs.cfg
	cell := cCell{reg: cfg.Reg.Enabled}
	// INSEL taps INA/INB/INC/IND — column-relative, like every operand mux —
	// or the previous row's vector by absolute block index (rce.Eval).
	switch src := cfg.Insel.Source & 7; src {
	case 1:
		cell.insel = uint8(secondaryBlock(col, 0))
	case 2:
		cell.insel = uint8(secondaryBlock(col, 1))
	case 3:
		cell.insel = uint8(secondaryBlock(col, 2))
	case 4, 5, 6, 7:
		cell.insel = src // executor reads prev[src-4]
	default:
		cell.insel = uint8(col)
	}
	if cell.reg && rs.hold {
		// Frozen registered RCE: presents its stored value, latches nothing.
		cell.regOnly = true
		return cell
	}

	addE := func(e isa.ECfg) {
		if e.Mode == isa.EBypass {
			return
		}
		var kindImm uint8
		switch e.Mode {
		case isa.EShl:
			kindImm = stShlImm
		case isa.EShr:
			kindImm = stShrImm
		default:
			kindImm = stRotlImm
		}
		amtOf := func(raw uint32) uint8 {
			amt := raw & 31
			if e.Neg {
				amt = (32 - amt) & 31
			}
			return uint8(amt)
		}
		if e.AmtSrc == isa.SrcImm {
			if amt := amtOf(uint32(e.Amt)); amt != 0 || e.Mode != isa.ERotl {
				cell.steps = append(cell.steps, step{kind: kindImm, aux: amt})
			}
			return
		}
		isImm, val, blk, fromER := operandOf(e.AmtSrc, 0, col, rs.iner)
		if isImm {
			// A key-sourced amount keeps its step even when it folds to a
			// zero rotate: the identity operation costs nothing and the
			// immER provenance must survive for the side-channel profile.
			if amt := amtOf(val); amt != 0 || e.Mode != isa.ERotl || fromER {
				cell.steps = append(cell.steps, step{kind: kindImm, aux: amt, immER: fromER})
			}
			return
		}
		cell.steps = append(cell.steps, step{kind: kindImm - stShlImm + stShlVar, src: blk, flag: e.Neg})
	}
	addA := func(a isa.ACfg) {
		if a.Op == isa.ABypass {
			return
		}
		var kImm uint8
		switch a.Op {
		case isa.AXor:
			kImm = stXorImm
		case isa.AAnd:
			kImm = stAndImm
		default:
			kImm = stOrImm
		}
		isImm, val, blk, fromER := operandOf(a.Operand, a.Imm, col, rs.iner)
		if isImm {
			if a.PreShift != 0 {
				if a.PreShiftRot {
					val = bits.RotL(val, uint(a.PreShift))
				} else {
					val = bits.Shl(val, uint(a.PreShift))
				}
			}
			cell.steps = append(cell.steps, step{kind: kImm, imm: val, immER: fromER})
			return
		}
		cell.steps = append(cell.steps, step{
			kind: kImm - stXorImm + stXorBlk, src: blk, aux: a.PreShift & 31, flag: a.PreShiftRot,
		})
	}

	addE(cfg.E1)
	addA(cfg.A1)
	switch cfg.C.Mode {
	case isa.CS8x8:
		cell.steps = append(cell.steps, step{kind: stS8, lut: lut})
	case isa.CS4x4:
		cell.steps = append(cell.steps, step{kind: stS4, lut: lut, aux: cfg.C.Page & 7})
	case isa.CS8to32:
		cell.steps = append(cell.steps, step{kind: stS8to32, lut: lut, aux: cfg.C.ByteSel & 3})
	}
	addE(cfg.E2)
	switch cfg.D.Mode {
	case isa.DMul16, isa.DMul32:
		w := uint8(bits.W16)
		if cfg.D.Mode == isa.DMul32 {
			w = uint8(bits.W32)
		}
		isImm, val, blk, fromER := operandOf(cfg.D.Operand, cfg.D.Imm, col, rs.iner)
		if isImm {
			cell.steps = append(cell.steps, step{kind: stMulImm, imm: val, aux: w, immER: fromER})
		} else {
			cell.steps = append(cell.steps, step{kind: stMulBlk, src: blk, aux: w})
		}
	case isa.DSquare:
		cell.steps = append(cell.steps, step{kind: stSquare})
	}
	if cfg.B.Mode != isa.BBypass {
		kImm, kBlk := stAddImm, stAddBlk
		if cfg.B.Mode == isa.BSub {
			kImm, kBlk = stSubImm, stSubBlk
		}
		isImm, val, blk, fromER := operandOf(cfg.B.Operand, cfg.B.Imm, col, rs.iner)
		if isImm {
			cell.steps = append(cell.steps, step{kind: kImm, imm: val, aux: cfg.B.Width & 3, immER: fromER})
		} else {
			cell.steps = append(cell.steps, step{kind: kBlk, src: blk, aux: cfg.B.Width & 3})
		}
	}
	if cfg.F.Mode == isa.FLanes || cfg.F.Mode == isa.FMDS {
		cell.steps = append(cell.steps, step{kind: stGFTab, gf: gfTables(cfg.F.Mode, cfg.F.Consts, gfCache)})
	}
	addA(cfg.A2)
	addE(cfg.E3)

	if len(cell.steps) == 0 && cell.insel == uint8(col) && !cell.reg {
		cell.passthrough = true
	}
	return cell
}
