// Package equiv is a word-level symbolic translation validator for compiled
// fastpath traces. It executes the microcode's bulk-encryption phase and the
// compiled trace side by side over a shared hash-consed expression arena —
// the reference side running the program on a cycle-accurate sim.Machine
// and evaluating each of its cycles symbolically, the fastpath side
// replaying the compiled op list with its folded T-tables
// re-expanded to their defining GF(2^8) expressions — and proves every
// emitted block's four output expressions identical. The proof closes over
// the infinite stream in two phases: a base phase walks from the true
// initial state until the joint control state (which is data-independent in
// both machines) repeats with period p, then an inductive phase replaces
// the carried register/feedback data with fresh variables — shared between
// the sides where their expressions agree, distinct where they differ (a
// difference no output reads does not refute the proof) — and re-proves
// one full period under that generalization, refining the agreeing set
// until it is inductive. Because expressions mention input atoms only
// positionally, the generalized period transfers to every later period by
// uniform renaming.
//
// What a Proven result certifies: for every block of the continuous input
// stream, the compiled trace emits exactly the words the microcode would
// emit, under the canonicalization laws of the arena (which are themselves
// validated by concrete evaluation in this package's tests). What it does
// not certify: timing, cycle counts, or any property of the setup phase,
// which both sides execute concretely and identically by construction.
package equiv

import (
	"fmt"
	"time"

	"cobra/internal/datapath"
	"cobra/internal/fastpath"
	"cobra/internal/isa"
)

// Config parameterizes one validation run.
type Config struct {
	Name     string
	Geometry datapath.Geometry
	Window   int

	// MaxOutputs bounds how many output boundaries are explored before the
	// proof is abandoned as non-closing (default 4096). Real programs close
	// within a handful of outputs; a failure to close is reported, never
	// silently passed.
	MaxOutputs int

	// MaxNodes bounds arena growth (default 1<<21 nodes). Symbolic blowup —
	// e.g. data-dependent rotate chains feeding themselves — is refused,
	// not approximated.
	MaxNodes int
}

// Mismatch describes the first diverging output word, with both sides'
// canonical expressions and a concrete minimized witness.
type Mismatch struct {
	Output  int // output block index (0-based within the validated stream)
	Col     int
	Ref, FP string
	Witness *Witness
}

// Result is one validation verdict. Proven is true only when the output
// expressions matched at every explored boundary AND the joint state closed
// on itself; everything else carries a Reason (and, for a certified
// functional divergence, a Mismatch with its witness).
type Result struct {
	Name    string
	Proven  bool
	Outputs int  // boundaries compared before closure
	Inputs  int  // input blocks consumed before closure
	Nodes   int  // arena size at the end of the run
	Batch   bool // the trace's batch form is proven too
	Reason  string
	Mism    *Mismatch
	Wall    time.Duration
}

// Err returns the result as an error (nil when proven).
func (r *Result) Err() error {
	if r.Proven {
		return nil
	}
	return fmt.Errorf("equiv: %s: %s", r.Name, r.Reason)
}

// String renders a one-line verdict; mismatch details are appended on their
// own lines.
func (r *Result) String() string {
	if r.Proven {
		batch := ""
		if r.Batch {
			batch = ", batch form"
		}
		return fmt.Sprintf("%s: proven equivalent (%d outputs, %d inputs, %d nodes%s, %v)",
			r.Name, r.Outputs, r.Inputs, r.Nodes, batch, r.Wall.Round(time.Microsecond))
	}
	s := fmt.Sprintf("%s: NOT proven: %s", r.Name, r.Reason)
	if m := r.Mism; m != nil {
		s += fmt.Sprintf("\n  output %d col %d\n  microcode: %s\n  fastpath:  %s", m.Output, m.Col, m.Ref, m.FP)
		if w := m.Witness; w != nil {
			s += fmt.Sprintf("\n  witness: inputs %v -> microcode %#08x, fastpath %#08x", w.Inputs, w.RefVal, w.FPVal)
		}
	}
	return s
}

// Validate proves (or refutes) that the compiled trace tr computes the same
// block stream as the microcode words it was compiled from. tr is read,
// never written; given an executor's own trace (fastpath.Exec.Trace), the
// verdict covers exactly what that executor and every Fresh one run.
func Validate(words []isa.Word, cfg Config, tr *fastpath.Trace) *Result {
	start := time.Now()
	res := &Result{Name: cfg.Name}
	defer func() { res.Wall = time.Since(start) }()
	maxOut := cfg.MaxOutputs
	if maxOut <= 0 {
		maxOut = 4096
	}
	maxNodes := cfg.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 1 << 21
	}

	a := NewArena()
	ref, err := newRefWalker(a, words, cfg.Geometry, cfg.Window)
	if err != nil {
		res.Reason = err.Error()
		return res
	}

	// The trace's recorded initial state must be the concrete idle state the
	// setup phase actually reaches — otherwise the recorder itself drifted
	// and the walks would be comparing different machines.
	if len(tr.InitReg) != cfg.Geometry.Rows {
		res.Reason = fmt.Sprintf("trace has %d register rows, geometry has %d", len(tr.InitReg), cfg.Geometry.Rows)
		return res
	}
	for r := 0; r < cfg.Geometry.Rows; r++ {
		for c := 0; c < datapath.Cols; c++ {
			if got, want := tr.InitReg[r][c], ref.idleReg(r, c); got != want {
				res.Reason = fmt.Sprintf("trace initial reg[%d][%d]=%#08x, idle microcode state has %#08x", r, c, got, want)
				return res
			}
		}
	}
	if got, want := tr.InitFB, ref.idleFB(); got != want {
		res.Reason = fmt.Sprintf("trace initial feedback %v, idle microcode state has %v", got, want)
		return res
	}

	fp, err := newFPWalker(a, tr)
	if err != nil {
		res.Reason = err.Error()
		return res
	}

	// step advances both walks one output boundary, verifying input cadence
	// and per-column expression equality. vars maps generalized variables
	// back to the boundary state they stand for (nil during the base phase).
	step := func(out int, vars map[uint32]xid) (failed bool) {
		refOut, err := ref.nextOutput()
		if err != nil {
			res.Reason = err.Error()
			return true
		}
		fpOut, err := fp.nextOutput()
		if err != nil {
			res.Reason = err.Error()
			return true
		}
		res.Outputs = out + 1
		res.Inputs = ref.inCount
		res.Nodes = a.Size()
		if ref.inCount != fp.inCount {
			res.Reason = fmt.Sprintf("input cadence diverges at output %d: microcode consumed %d blocks, fastpath %d",
				out, ref.inCount, fp.inCount)
			return true
		}
		for c := 0; c < datapath.Cols; c++ {
			if refOut[c] == fpOut[c] {
				continue
			}
			rx, fx := refOut[c], fpOut[c]
			if vars != nil {
				// A generalized-step divergence: substitute the actual
				// boundary state back in. If the sides still differ, it is a
				// real symbolic divergence at this stream position; if they
				// converge, the invariant was too weak to carry the proof —
				// refuse rather than report a divergence for an unreachable
				// carried state.
				memo := make(map[xid]xid)
				rx, fx = a.subst(rx, vars, memo), a.subst(fx, vars, memo)
				if rx == fx {
					res.Reason = fmt.Sprintf("inductive step fails at output %d col %d under generalized carried state; cannot certify\n  microcode: %s\n  fastpath:  %s",
						out, c, a.String(refOut[c]), a.String(fpOut[c]))
					return true
				}
			}
			w := findWitness(a, rx, fx, ref.inCount)
			if w == nil {
				// Symbolically distinct but no diverging input found: refuse
				// to certify either way. Sound (never claims equivalence),
				// honest (never reports a divergence it cannot demonstrate).
				res.Reason = fmt.Sprintf("output %d col %d: expressions differ but no diverging witness found (normalization gap?)\n  microcode: %s\n  fastpath:  %s",
					out, c, a.String(rx), a.String(fx))
				return true
			}
			res.Reason = fmt.Sprintf("output %d col %d diverges", out, c)
			res.Mism = &Mismatch{Output: out, Col: c, Ref: a.String(rx), FP: a.String(fx), Witness: w}
			return true
		}
		if a.Size() > maxNodes {
			res.Reason = fmt.Sprintf("expression arena exceeded %d nodes at output %d", maxNodes, out)
			return true
		}
		return false
	}

	// Base phase: walk both sides from the true initial state, verifying
	// every output, until the joint control state repeats. Control in both
	// machines is data-independent (the walks refuse everything else), so a
	// control repeat at distance p means control is periodic with period p
	// from there on.
	seen := make(map[string]int)
	period, out := 0, 0
	for ; out < maxOut; out++ {
		if step(out, nil) {
			return res
		}
		key := ref.ctlKey() + "\x00" + fp.ctlKey()
		if prev, ok := seen[key]; ok {
			period = out - prev
			break
		}
		seen[key] = out
	}
	if period == 0 {
		res.Reason = fmt.Sprintf("no joint control-state closure within %d outputs", maxOut)
		return res
	}

	// Inductive phase: the base phase proved outputs 0..out equal. For every
	// later output, generalize: replace the carried data of both sides with
	// fresh variables — one shared variable where the sides' expressions
	// agree at this boundary (the candidate invariant), separate variables
	// where they differ (a location no output reads may differ without
	// refuting the proof) — and run one full period. If every output pair
	// matches and the agreeing locations agree again at the end, the
	// invariant is inductive and covers all remaining outputs: expressions
	// are built from input atoms only positionally, so the proven period
	// transfers to every later period by uniform renaming. Locations that
	// fail to re-agree drop out of the candidate invariant and the period
	// reruns (control is back at the loop point), until the set is stable or
	// provably not inductive.
	refAct, fpAct := ref.carried(), fp.carried()
	nloc := len(refAct)
	inv := make([]bool, nloc)
	for i := range inv {
		inv[i] = refAct[i] == fpAct[i]
	}
	startKey := ref.ctlKey() + "\x00" + fp.ctlKey()
	varIdx := uint32(0)
	for round := 0; ; round++ {
		if round > nloc {
			res.Reason = "inductive invariant refinement did not converge"
			return res
		}
		refG := make([]xid, nloc)
		fpG := make([]xid, nloc)
		vars := make(map[uint32]xid, 2*nloc)
		for i := 0; i < nloc; i++ {
			v := a.Var(varIdx)
			vars[varIdx] = refAct[i]
			varIdx++
			refG[i] = v
			if inv[i] {
				fpG[i] = v
			} else {
				fpG[i] = a.Var(varIdx)
				vars[varIdx] = fpAct[i]
				varIdx++
			}
		}
		ref.setCarried(refG)
		fp.setCarried(fpG)
		for i := 0; i < period; i++ {
			if step(out+1+i, vars) {
				return res
			}
		}
		if key := ref.ctlKey() + "\x00" + fp.ctlKey(); key != startKey {
			res.Reason = "control state failed to return to the loop point after one period"
			return res
		}
		refEnd, fpEnd := ref.carried(), fp.carried()
		stable := true
		for i := 0; i < nloc; i++ {
			if inv[i] && refEnd[i] != fpEnd[i] {
				inv[i] = false
				stable = false
			}
		}
		if stable {
			if tr.Batch != nil {
				if res.Reason, res.Mism = proveBatch(tr); res.Reason != "" {
					return res
				}
				res.Batch = true
			}
			res.Proven = true
			return res
		}
	}
}
