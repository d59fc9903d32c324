package equiv

import (
	"fmt"
	"strings"

	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/fastpath"
	"cobra/internal/isa"
	"cobra/internal/rce"
	"cobra/internal/sim"
)

// refMaxSteps bounds the reference walk's instruction fetches, mirroring
// package dataflow's budget: a bulk phase that has not produced its next
// output within this many fetches is refused rather than hung on.
const refMaxSteps = 1 << 22

// refWalker symbolically executes the microcode's bulk-encryption phase:
// the reference side of the translation validation. The program runs on a
// real cycle-accurate machine. Its setup phase (load to the ready idle
// point) runs concretely — every value is a compile-time constant there,
// exactly as the fastpath recorder sees it. In the bulk phase the machine's
// Trace hook refuses what a compiled trace cannot replay, and its TickHook
// evaluates every cycle a second time, with expression IDs in place of the
// 32-bit data words.
type refWalker struct {
	a *Arena
	m *sim.Machine

	inCount int
	reg     [][datapath.Cols]xid
	fb      [datapath.Cols]xid

	// out holds the output expressions of the last cycle that collected a
	// block; emitted reports that such a cycle ran.
	out     [datapath.Cols]xid
	emitted bool
	// hazard is the first bulk instruction a compiled trace cannot replay.
	hazard error

	// Interned LUT table ids per cell, resolved lazily; LUT loads during
	// bulk are refused, so one interning per cell is valid for the walk.
	s8ids map[int]uint32
	s4ids map[int]uint32
}

// newRefWalker loads the program on a scratch machine, runs setup
// concretely to the ready idle point, and initializes the symbolic state
// from the machine's concrete registers and feedback.
func newRefWalker(a *Arena, words []isa.Word, geo datapath.Geometry, window int) (*refWalker, error) {
	m, err := sim.New(geo, window)
	if err != nil {
		return nil, err
	}
	m.Go = false
	if err := m.LoadProgram(words); err != nil {
		return nil, err
	}
	reason, err := m.Run(sim.Limits{})
	if err != nil {
		return nil, err
	}
	if reason != sim.StopWaitGo {
		return nil, fmt.Errorf("equiv: setup stopped with %v, want idle at ready", reason)
	}
	m.ResetStats()
	w := &refWalker{
		a:     a,
		m:     m,
		reg:   make([][datapath.Cols]xid, geo.Rows),
		s8ids: make(map[int]uint32),
		s4ids: make(map[int]uint32),
	}
	m.Trace = w.watch
	m.TickHook = w.tick
	for r := 0; r < geo.Rows; r++ {
		for c := 0; c < datapath.Cols; c++ {
			w.reg[r][c] = a.Const(m.Array.RegValue(r, c))
		}
	}
	for c := 0; c < datapath.Cols; c++ {
		w.fb[c] = a.Const(m.Array.Feedback()[c])
	}
	return w, nil
}

// idleReg returns the concrete idle-point register value (the cross-check
// against the trace's recorded initial state).
func (w *refWalker) idleReg(r, c int) uint32 { return w.m.Array.RegValue(r, c) }
func (w *refWalker) idleFB() bits.Block128   { return w.m.Array.Feedback() }

// nextOutput runs the machine to the next collected output block and
// returns its four column expressions. Go stays low, so every ready raise
// returns; the walk refuses the instructions fastpath.Hazard names, which
// the recorder refuses too, so a refusal here means Compile would have
// failed. It also refuses a halt.
func (w *refWalker) nextOutput() ([datapath.Cols]xid, error) {
	m := w.m
	w.emitted = false
	for !w.emitted {
		if m.Stats().Instructions >= refMaxSteps {
			return w.out, fmt.Errorf("equiv: reference walk exceeded %d instruction fetches", refMaxSteps)
		}
		// The executor grants input at every consume point during bulk.
		if m.PendingInputs() == 0 {
			m.PushInput(bits.Block128{})
		}
		reason, err := m.Run(sim.Limits{MaxCycles: 1})
		switch {
		case err != nil:
			return w.out, err
		case w.hazard != nil:
			return w.out, w.hazard
		case reason == sim.StopHalted:
			return w.out, fmt.Errorf("equiv: program halts at %#x before the walk closed", m.Seq.PC()-1)
		}
		m.ClearOutputs()
	}
	return w.out, nil
}

// watch keeps the first bulk instruction a compiled trace cannot replay.
func (w *refWalker) watch(addr int, in isa.Instr) {
	if w.hazard == nil {
		w.hazard = fastpath.Hazard(addr, in)
	}
}

// tick evaluates the cycle the machine is about to run symbolically:
// datapath.Array.Tick's phase order, shuffler and bypass-bus semantics and
// register present/latch split, with every 32-bit word replaced by an
// arena expression.
func (w *refWalker) tick() {
	a, arr := w.a, w.m.Array
	if !arr.Enabled() {
		return // stall: no state moves
	}
	im := arr.InMux()
	var vec [datapath.Cols]xid
	switch im.Mode {
	case isa.InExternal:
		for c := 0; c < datapath.Cols; c++ {
			vec[c] = a.Input(w.inCount, c)
		}
		w.inCount++
	case isa.InFeedback:
		vec = w.fb
	case isa.InERAM:
		// eRAM contents are frozen during bulk (writes and captures are
		// refused), so playback reads are the setup-time constants.
		for c := 0; c < datapath.Cols; c++ {
			vec[c] = a.Const(arr.ReadERAM(c, int(im.Bank), int(arr.PlaybackAddr())))
		}
	}
	for c := 0; c < datapath.Cols; c++ {
		vec[c] = whiteExpr(a, vec[c], arr.Whitening(c), true)
	}

	type pend struct {
		r, c int
		v    xid
	}
	var latches []pend
	prev := vec
	rows := arr.Geometry().Rows
	for r := 0; r < rows; r++ {
		if r%2 == 1 {
			perm := arr.Shuffler(r / 2)
			vec = symShuffle(a, vec, &perm)
		}
		rowIn := vec
		var next [datapath.Cols]xid
		for c := 0; c < datapath.Cols; c++ {
			el := arr.RCE(r, c)
			if el.Cfg.Reg.Enabled && arr.Held(r, c) {
				// Frozen register: presents its stored value, latches nothing.
				next[c] = w.reg[r][c]
				continue
			}
			v := w.evalCell(r, c, el, vec, prev)
			if el.Cfg.Reg.Enabled {
				next[c] = w.reg[r][c]
				latches = append(latches, pend{r, c, v})
			} else {
				next[c] = v
			}
		}
		vec = next
		prev = rowIn
	}

	for c := 0; c < datapath.Cols; c++ {
		vec[c] = whiteExpr(a, vec[c], arr.Whitening(c), false)
	}

	// Commit; the machine's own tick advances the playback address.
	for _, p := range latches {
		w.reg[p.r][p.c] = p.v
	}
	w.fb = vec
	if w.m.Seq.Flag(isa.FlagDValid) {
		w.out, w.emitted = vec, true
	}
}

// evalCell walks the cell's decoded chain symbolically: the INSEL-selected
// port, then every active element, each building its arena expression. The
// eRAM read port is a frozen setup-time constant.
func (w *refWalker) evalCell(r, c int, el *rce.RCE, vec, prev [datapath.Cols]xid) xid {
	a := w.a
	operand := func(o rce.Operand) xid {
		switch o.From {
		case rce.FromPort:
			return datapath.PortValue(c, o.Port, &vec, &prev)
		case rce.FromERAM:
			return a.Const(w.m.Array.ReadERAM(c, int(el.Cfg.ER.Bank), int(el.Cfg.ER.Addr)))
		}
		return a.Const(o.Imm)
	}
	ch := el.Chain()
	x := datapath.PortValue(c, ch.Insel, &vec, &prev)
	for _, s := range ch.Steps() {
		switch s.Op {
		case rce.OpShl, rce.OpShr, rce.OpRotl:
			if s.Operand.From == rce.FromImm {
				amt := s.Amount(s.Operand.Imm)
				switch s.Op {
				case rce.OpShl:
					x = a.Shl(x, amt)
				case rce.OpShr:
					x = a.Shr(x, amt)
				default:
					x = a.Rotl(x, amt)
				}
				continue
			}
			amtX := operand(s.Operand)
			switch s.Op {
			case rce.OpShl:
				x = a.ShlVar(x, amtX, s.Neg)
			case rce.OpShr:
				x = a.ShrVar(x, amtX, s.Neg)
			default:
				x = a.RotlVar(x, amtX, s.Neg)
			}
		case rce.OpXor, rce.OpAnd, rce.OpOr:
			op := operand(s.Operand)
			if s.Shift != 0 {
				if s.Rot {
					op = a.Rotl(op, uint(s.Shift))
				} else {
					op = a.Shl(op, uint(s.Shift))
				}
			}
			switch s.Op {
			case rce.OpXor:
				x = a.Xor(x, op)
			case rce.OpAnd:
				x = a.And(x, op)
			default:
				x = a.Or(x, op)
			}
		case rce.OpS8:
			x = a.S8(x, w.s8id(r, c, el))
		case rce.OpS4:
			x = a.S4(x, w.s4id(r, c, el), uint32(s.Sel))
		case rce.OpS8to32:
			x = a.S8to32(x, w.s8id(r, c, el), uint32(s.Sel))
		case rce.OpMul:
			x = a.Mul(x, operand(s.Operand), s.Width)
		case rce.OpSquare:
			x = a.Square(x)
		case rce.OpAdd:
			x = a.Add(x, operand(s.Operand), s.Width)
		case rce.OpSub:
			x = a.Sub(x, operand(s.Operand), s.Width)
		case rce.OpGFLanes:
			x = a.GF(x, gfLanes, s.Consts)
		case rce.OpGFMDS:
			x = a.GF(x, gfMDS, s.Consts)
		}
	}
	return x
}

func (w *refWalker) s8id(r, c int, el *rce.RCE) uint32 {
	key := r*datapath.Cols + c
	if id, ok := w.s8ids[key]; ok {
		return id
	}
	id := w.a.InternS8(&el.LUT.S8)
	w.s8ids[key] = id
	return id
}

func (w *refWalker) s4id(r, c int, el *rce.RCE) uint32 {
	key := r*datapath.Cols + c
	if id, ok := w.s4ids[key]; ok {
		return id
	}
	id := w.a.InternS4(&el.LUT.S4)
	w.s4ids[key] = id
	return id
}

// ctlKey renders the walker's complete control and configuration state —
// pc, flags, output enables, input mux, playback address, every cell's
// decoded configuration and hold bit, shufflers, and whitening. Together
// with the frozen eRAM/LUT contents and the immutable instruction stream
// (neither of which can change during bulk — the walk refuses the writes),
// this determines every future control decision and every future operation
// applied to the carried data. Data expressions are deliberately absent:
// control in this machine is data-independent, and the inductive step
// quantifies over the carried data separately.
func (w *refWalker) ctlKey() string {
	arr := w.m.Array
	var sb strings.Builder
	im := arr.InMux()
	fmt.Fprintf(&sb, "pc=%d f=%04x en=%t im=%d.%d.%d pa=%d|",
		w.m.Seq.PC(), w.m.Seq.Flags(), arr.Enabled(), im.Mode, im.Bank, im.Addr, arr.PlaybackAddr())
	rows := arr.Geometry().Rows
	for r := 0; r < rows; r++ {
		for c := 0; c < datapath.Cols; c++ {
			// rce.Config is a plain comparable struct of decoded fields; its
			// %v rendering is an exact representation.
			fmt.Fprintf(&sb, "%v/%t;", arr.RCE(r, c).Cfg, arr.Held(r, c))
		}
	}
	for i := 0; i < arr.Geometry().Shufflers(); i++ {
		fmt.Fprintf(&sb, "s%v;", arr.Shuffler(i))
	}
	for c := 0; c < datapath.Cols; c++ {
		fmt.Fprintf(&sb, "w%v;", arr.Whitening(c))
	}
	return sb.String()
}

// carried returns the walker's carried-data expressions: register cells in
// row-major order, then the feedback words.
func (w *refWalker) carried() []xid {
	ids := make([]xid, 0, len(w.reg)*datapath.Cols+datapath.Cols)
	for r := range w.reg {
		ids = append(ids, w.reg[r][:]...)
	}
	return append(ids, w.fb[:]...)
}

// setCarried overwrites the carried data (the inductive step's
// generalization point). Layout matches carried().
func (w *refWalker) setCarried(ids []xid) {
	for r := range w.reg {
		copy(w.reg[r][:], ids[r*datapath.Cols:])
	}
	copy(w.fb[:], ids[len(w.reg)*datapath.Cols:])
}

// whiteExpr applies one column's whitening register symbolically when the
// stage matches (datapath.whiteState.apply; WhiteAdd is a full 32-bit add).
func whiteExpr(a *Arena, x xid, cfg isa.WhiteCfg, atInput bool) xid {
	if cfg.In != atInput {
		return x
	}
	switch cfg.Mode {
	case isa.WhiteXor:
		return a.Xor(x, a.Const(cfg.Key))
	case isa.WhiteAdd:
		return a.Add(x, a.Const(cfg.Key), bits.W32)
	default:
		return x
	}
}

// symShuffle permutes the sixteen stream bytes symbolically: destination
// word c packs the four extracted source bytes (perm[dst] = src index).
// An identity permutation normalizes back to the unshuffled words, which is
// how the fastpath's compiled-out identity shufflers stay equivalent.
func symShuffle(a *Arena, v [datapath.Cols]xid, perm *[16]uint8) [datapath.Cols]xid {
	var out [datapath.Cols]xid
	for c := 0; c < datapath.Cols; c++ {
		var b [4]xid
		for i := 0; i < 4; i++ {
			src := perm[c*4+i]
			b[i] = a.Byte(v[src>>2], int(src&3))
		}
		out[c] = a.Pack4(b)
	}
	return out
}
