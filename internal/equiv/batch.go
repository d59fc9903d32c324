package equiv

import (
	"fmt"

	"cobra/internal/datapath"
	"cobra/internal/fastpath"
	"cobra/internal/isa"
)

// proveBatch proves a trace's batch form (fastpath.Trace.Batch) and
// returns the reason it fails, or "", with the first diverging output
// word when there is one. The executor computes block k of every call as
// one pass of block k through the batch form, so each pass must equal the
// k-th output of the cycle-wise trace, which Validate has already tied to
// the microcode for the whole stream. Let the head consume D+1 blocks and
// emit one, and each period consume and emit E. Then:
//   - blocks 0..D enter during the head, from the post-load state every
//     streaming call starts from: the full walk's outputs 0..D must equal
//     their passes;
//   - every later block enters on one of the E consuming cycles of some
//     period. A walk that starts at the period with a fresh variable in
//     every register and the feedback emits the blocks it took in on its
//     first period as its outputs D..D+E−1, and each must equal its pass.
//     Control repeats from period to period, so stream block D+1+mE+q
//     meets the cycles the fresh walk's block q meets, from the state
//     period m starts with, and its output is proven whatever that state.
//
// Together these cover every block of every call: a call of n blocks
// returns stream outputs 0..n−1. The two walks run in an arena of their
// own, so the node count Validate reports is the main proof's. A
// mismatch reports the cycles' expression as Ref, the microcode's side:
// from the post-load state the main proof has tied the two together.
func proveBatch(tr *fastpath.Trace) (string, *Mismatch) {
	if len(tr.Batch.Rows) != tr.Rows {
		return fmt.Sprintf("batch form has %d rows, want %d", len(tr.Batch.Rows), tr.Rows), nil
	}
	hIn, hOut := traffic(tr.Head)
	pIn, pOut := traffic(tr.Period)
	if !tr.Streaming || hIn < 1 || hOut != 1 || pIn < 1 || pIn != pOut {
		return fmt.Sprintf("batch form on a trace whose head consumes %d blocks and emits %d, and whose period consumes %d and emits %d",
			hIn, hOut, pIn, pOut), nil
	}
	depth := hIn - 1
	a := NewArena()
	head, err := newFPWalker(a, tr)
	if err != nil {
		return err.Error(), nil
	}
	period, _ := newFPWalker(a, tr)
	period.seg = 1
	for r := range period.reg {
		for c := 0; c < datapath.Cols; c++ {
			period.reg[r][c] = a.Var(uint32(r*datapath.Cols + c))
		}
	}
	for c := 0; c < datapath.Cols; c++ {
		period.fb[c] = a.Var(uint32(len(period.reg)*datapath.Cols + c))
	}
	for i := 0; i < depth; i++ {
		if _, err := period.nextOutput(); err != nil {
			return err.Error(), nil
		}
	}

	for k := 0; k <= depth+pIn; k++ {
		// Block k ≤ depth is the full walk's; block depth+1+q is the fresh
		// walk's block q.
		w, blk, from := head, k, "the post-load state"
		if k > depth {
			w, blk, from = period, k-depth-1, "a fresh register state"
		}
		want, err := w.nextOutput()
		if err != nil {
			return err.Error(), nil
		}
		var vec [datapath.Cols]xid
		for c := range vec {
			vec[c] = traceWhiteExpr(a, a.Input(blk, c), tr.Batch.WhiteIn[c])
		}
		vec = w.rows(tr.Batch.Rows, vec, false)
		for c := range vec {
			got := traceWhiteExpr(a, vec[c], tr.Batch.WhiteOut[c])
			if got == want[c] {
				continue
			}
			m := &Mismatch{Output: k, Col: c, Ref: a.String(want[c]), FP: a.String(got),
				Witness: findWitness(a, want[c], got, w.inCount)}
			return fmt.Sprintf("batch form fails on block %d col %d: its pass differs from the trace's cycles from %s", k, c, from), m
		}
	}
	return "", nil
}

// traffic counts the blocks a compiled segment consumes and emits.
func traffic(ticks []fastpath.TraceTick) (in, out int) {
	for i := range ticks {
		if ct := &ticks[i]; ct.Enabled {
			if ct.InMode == isa.InExternal {
				in++
			}
			if ct.Emit {
				out++
			}
		}
	}
	return in, out
}
