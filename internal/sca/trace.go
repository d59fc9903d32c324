package sca

import (
	"cobra/internal/datapath"
	"cobra/internal/fastpath"
	"cobra/internal/isa"
)

// tracePassCap bounds the period fixpoint iteration. The taint state is
// finite (two bits per register word plus feedback), so the walk always
// closes; the cap turns a would-be bug into an incomplete profile instead
// of a stall.
const tracePassCap = 4096

// AnalyzeTrace builds the side-channel profile of a compiled fastpath
// trace, the op list the executor itself runs (fastpath.Exec.Trace; read,
// never written), by abstract interpretation of that IR over the same
// {key, plaintext} lattice the microcode walk uses: external input words
// are plaintext, resolved eRAM playback words and immediates folded from
// eRAM reads (TraceStep.ImmER) are key material, whitening stages join key
// taint, and every table-read step (S8/S4/S8to32 lanes, folded GF
// contribution tables) records the taint of its index value.
//
// The walker follows the trace's cycles as Exec.runSeg runs them — same
// input selection, shuffle, insel, register swap and emit points. A trace
// with a batch form runs the same steps on the same values, once per
// block: its enabled cycles all run the batch form's rows, and each block
// meets every row once. So the profile describes what runs either way, and
// a mismatch against the microcode means the compiled ops and the
// microcode disagree about where secrets reach memory addresses, which is
// exactly what Compare reports.
func AnalyzeTrace(tr *fastpath.Trace) *Profile {
	p := &Profile{Name: tr.Name, Source: "fastpath"}
	acc := make(map[[3]int]*Access)

	// Registers after the load phase hold key-schedule material.
	reg := make([][datapath.Cols]Taint, tr.Rows)
	for r := range tr.InitReg {
		if r >= len(reg) {
			break
		}
		for c := 0; c < datapath.Cols; c++ {
			reg[r][c] = Taint{Key: true}
		}
	}
	var fb [datapath.Cols]Taint

	w := &traceWalker{p: p, acc: acc, reg: reg}
	w.fb = fb

	tick := 0
	for i := range tr.Head {
		w.tick(&tr.Head[i], tick)
		tick++
	}

	if len(tr.Period) == 0 {
		p.Complete = true
	} else {
		seen := map[string]bool{w.fingerprint(): true}
		for pass := 0; pass < tracePassCap; pass++ {
			for i := range tr.Period {
				w.tick(&tr.Period[i], tick)
				tick++
			}
			fp := w.fingerprint()
			if seen[fp] {
				p.Complete = true
				break
			}
			seen[fp] = true
		}
	}

	p.Accesses = sortedAccesses(acc)
	return p
}

type traceWalker struct {
	p   *Profile
	acc map[[3]int]*Access
	reg [][datapath.Cols]Taint
	fb  [datapath.Cols]Taint
}

// fingerprint serializes the inter-cycle taint state (registers plus
// feedback) for the period fixpoint.
func (w *traceWalker) fingerprint() string {
	buf := make([]byte, 0, (len(w.reg)+1)*datapath.Cols)
	enc := func(t Taint) byte {
		var b byte
		if t.Key {
			b |= 1
		}
		if t.Plain {
			b |= 2
		}
		return b
	}
	for r := range w.reg {
		for c := 0; c < datapath.Cols; c++ {
			buf = append(buf, enc(w.reg[r][c]))
		}
	}
	for c := 0; c < datapath.Cols; c++ {
		buf = append(buf, enc(w.fb[c]))
	}
	return string(buf)
}

func (w *traceWalker) access(row, col int, elem isa.Elem, tick int, taint Taint) {
	k := accessKey(row, col, elem)
	a := w.acc[k]
	if a == nil {
		a = &Access{Row: row, Col: col, Elem: elem, FirstTick: tick, CfgAddr: -1}
		w.acc[k] = a
	}
	a.Taint = a.Taint.Or(taint)
	a.Count++
}

// tick interprets one compiled cycle, as Exec.runSeg runs it.
func (w *traceWalker) tick(ct *fastpath.TraceTick, tick int) {
	if !ct.Enabled {
		return
	}
	var vec [datapath.Cols]Taint
	switch ct.InMode {
	case isa.InExternal:
		for c := range vec {
			vec[c] = Taint{Plain: true}
		}
	case isa.InFeedback:
		vec = w.fb
	default: // InERAM: resolved playback words are key-schedule material
		for c := range vec {
			vec[c] = Taint{Key: true}
		}
	}
	for c := 0; c < datapath.Cols; c++ {
		if ct.WhiteIn[c].Mode != isa.WhiteOff {
			vec[c].Key = true
		}
	}

	prev := vec
	for r := range ct.Rows {
		row := &ct.Rows[r]
		if row.Shuffle != nil {
			vec = shuffleTaint(vec, row.Shuffle)
		}
		rowIn := vec
		var out [datapath.Cols]Taint
		for c := 0; c < datapath.Cols; c++ {
			cell := &row.Cells[c]
			if cell.Passthrough {
				out[c] = vec[c]
				continue
			}
			if cell.RegOnly {
				out[c] = w.reg[r][c]
				continue
			}
			var x Taint
			if cell.Insel < 4 {
				x = vec[cell.Insel]
			} else {
				x = prev[cell.Insel-4]
			}
			x = w.evalSteps(cell.Steps, x, &vec, r, c, tick)
			if cell.Reg {
				out[c] = w.reg[r][c]
				w.reg[r][c] = x
			} else {
				out[c] = x
			}
		}
		vec = out
		prev = rowIn
	}

	for c := 0; c < datapath.Cols; c++ {
		if ct.WhiteOut[c].Mode != isa.WhiteOff {
			vec[c].Key = true
		}
	}
	w.fb = vec
	if ct.Emit {
		w.p.Outputs++
		for c := 0; c < datapath.Cols; c++ {
			w.p.OutTaint[c] = w.p.OutTaint[c].Or(vec[c])
		}
	}
}

// evalSteps folds one compiled element chain over the taint lattice,
// recording table-read index taints as it goes.
func (w *traceWalker) evalSteps(steps []fastpath.TraceStep, x Taint, vec *[datapath.Cols]Taint, row, col, tick int) Taint {
	for i := range steps {
		st := &steps[i]
		switch st.Kind {
		case fastpath.StepS8, fastpath.StepS4, fastpath.StepS8to32:
			w.access(row, col, isa.ElemC, tick, x)
		case fastpath.StepGFTab:
			w.access(row, col, isa.ElemF, tick, x)
		case fastpath.StepXorBlk, fastpath.StepAndBlk, fastpath.StepOrBlk,
			fastpath.StepAddBlk, fastpath.StepSubBlk, fastpath.StepMulBlk,
			fastpath.StepShlVar, fastpath.StepShrVar, fastpath.StepRotlVar:
			x = x.Or(vec[st.Src])
		}
		if st.ImmER {
			x.Key = true
		}
	}
	return x
}

// shuffleTaint propagates taint through a byte shuffler: each destination
// word joins the taints of the source words its four bytes come from.
func shuffleTaint(v [datapath.Cols]Taint, perm *[16]uint8) [datapath.Cols]Taint {
	var out [datapath.Cols]Taint
	for dst := 0; dst < 16; dst++ {
		out[dst>>2] = out[dst>>2].Or(v[perm[dst]>>2])
	}
	return out
}
