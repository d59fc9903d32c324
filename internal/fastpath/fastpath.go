// Package fastpath is a trace-compiled bulk-encryption executor for COBRA
// programs: it runs one steady-state encryption window through the
// cycle-accurate machine (package sim) in a recording mode, proves the
// recorded cycle stream periodic, and "compiles" it into a flat per-cycle
// op-list executed as a tight Go loop over 128-bit blocks — no iRAM fetch,
// no control-word unpacking, no per-cycle dispatch through datapath.Array.
//
// # Why this is sound
//
// The paper's execution model has no data-dependent control flow: OpJmp is
// unconditional, flags are raised by the instruction stream alone, and the
// only external influence on sequencing is input availability, which the
// executor controls. The datapath configuration at cycle t is therefore a
// pure function of the instruction stream, independent of the data blocks
// flowing through the array. The recorder snapshots the complete control
// state at every cycle — program counter, flag register, every RCE control
// register with its eRAM read resolved, shuffler permutations, whitening,
// input multiplexor, playback address, output-enable and hold state — and
// Compile verifies that the snapshots between consecutive output cycles
// repeat exactly. Because that snapshot together with the (frozen) eRAM and
// LUT contents is the machine's entire control state, two equal snapshots
// at the same point of the output cadence prove the configuration schedule
// periodic for every future block, not just the recorded ones. Data state
// (pipeline registers, feedback) is carried by the executor itself.
//
// Programs that break the preconditions — eRAM writes, LUT loads or capture
// ports active during bulk encryption, key-request handshakes, aperiodic
// output cadence — are refused by Compile; they run only on the
// interpreter, and core.Device, which has no other engine, refuses to
// configure them. No program the cipher registry builds is refused. As a
// final guard, Compile replays the recorded inputs through the freshly
// compiled trace, on the whole array and on its batch form (below), and
// requires bit-identical outputs and counters before returning it.
//
// # One IR
//
// The compiled program is a Trace, declared once and exported. The
// executor runs it as is and Exec.Trace returns that same object, read-only
// and shared by every executor over it, so package equiv's proof, package
// sca's profile and core's Config.Validate gate cover what a device runs.
//
// # Cycle accounting
//
// The executor reports exactly the sim.Stats the interpreter would have
// accumulated. Every compiled cycle carries the counters attributed to it —
// the instructions executed since the previous cycle plus the cycle's own
// advance/stall and block movement — so any run of consecutive cycles sums
// to precisely the delta the interpreter reports when it stops right after
// the run's last cycle. A fresh (just-loaded) program costs the recorded
// head segment (load-to-first-output) plus steady periods; a dirty
// iterative program resumes mid-epilogue exactly like the machine does;
// streaming programs reload per call, as program.Run does. A
// steady period may span several outputs (a window-1 streaming loop emits
// every cycle while the sequencer alternates through its two-instruction
// idle loop), so the executor can stop and resume mid-period, again
// exactly where the interpreter would. The differential tests in this
// package cross-check ciphertext and counters against the interpreter for
// every builder at every depth and window.
//
// The counters are simulated cycles: a streaming call still pays its full
// pipeline fill and drain in sim.Stats. Host time need not pay it twice.
// Compile gives a streaming trace a batch form when its compiled cycles
// prove one: every enabled cycle runs one array configuration (the same
// rows and whitening) and consumes an external block; the registered rows
// are whole rows, PipelineDepth of them, and none is held; no cell of the
// row after a register row reads the previous row's input; and block
// j−depth is emitted at enabled cycle j, nothing before. Band s, the run of
// rows that ends at the s-th register row, then holds block j−s at enabled
// cycle j and reads nothing from another band but the register row above
// it, which band s−1 wrote on the previous cycle with the same block. So
// blocks do not interact, and one block's output is its input whitened in,
// passed through every row once with each registered cell passing on the
// block's own value, and whitened out. The executor computes a call that
// way, op-major: each step of each cell runs over a batch of up to
// batchBlocks blocks in one loop, row by row, so dispatch is paid once per
// op per batch rather than per block, and flush blocks are never staged.
// The call's counters come from its cycles, walked without data from the
// post-load state every streaming call starts from, so they are what a
// cycle-wise run adds. Package equiv proves the batch form equal to the
// cycle-wise trace for every block of every call.
package fastpath

import (
	"errors"
	"fmt"

	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/sim"
)

// ErrNotSteady reports that a program cannot be trace-compiled: its bulk
// encryption phase is not a fixed-period configuration schedule (or it
// performs state writes the compiled trace cannot replay). Such a program
// runs only on the cycle-accurate interpreter (program.Run); core.Device
// refuses to configure it.
var ErrNotSteady = errors.New("fastpath: program is not steady-state compilable")

// Source is the program handoff from package program (fastpath cannot
// import program without a cycle; program.Compile fills this in). It
// carries the microcode and its geometry only: no static-analysis result
// feeds compilation, so a compile costs one recording, the tick compiler
// and the self-check replay.
type Source struct {
	// Name identifies the program in error messages.
	Name string
	// Words is the packed microcode image.
	Words []isa.Word
	// Setup, when non-nil, is Words recorded at the idle point its setup
	// phase reaches on a fresh machine (program.Program.Record): the
	// recorder restores it rather than running that phase again.
	Setup *sim.Recording
	// Geometry is the array geometry the program targets.
	Geometry datapath.Geometry
	// Window is the instruction window size w.
	Window int
	// Streaming marks full-unroll non-feedback programs (reload per call,
	// pipeline-flush blocks appended, mirroring program.Run).
	Streaming bool
	// PipelineDepth is the number of register stages (streaming programs).
	PipelineDepth int
}

// Exec runs a compiled Trace with the mutable data state of one device
// (pipeline registers, feedback, resume point). The trace is shared and
// read-only; the data state is the executor's own. Like the machine it
// replaces, an Exec is not safe for concurrent use: Fresh makes another
// executor over the same trace for another device or goroutine
// (internal/farm's workers each run their own).
type Exec struct {
	tr *Trace

	reg   [][datapath.Cols]uint32
	fb    bits.Block128
	dirty bool

	// periodPos is the resume point inside the steady period: the index of
	// the next cycle to run when the executor is dirty. The interpreter
	// stops immediately after an output cycle; when a period holds several
	// outputs that stop lands mid-period, and the next call picks up here.
	periodPos int

	// inBuf is the reusable input staging buffer: inputs are copied here
	// before any output is written, so dst may alias blocks exactly as in
	// program.Run.
	inBuf []bits.Block128

	// cols is the batch form's working set (runBatch).
	cols batchCols
}

// newExec returns an executor over tr in the post-load state.
func newExec(tr *Trace) *Exec {
	e := &Exec{tr: tr, reg: make([][datapath.Cols]uint32, tr.Rows)}
	e.reset()
	return e
}

// Fresh returns a new executor over e's compiled trace, in the post-load
// state. The two share the trace and nothing else, so each may run on its
// own goroutine, and neither call history shows in the other's output.
// This is how a device reloads microcode compiled earlier without
// compiling it again.
func (e *Exec) Fresh() *Exec { return newExec(e.tr) }

// reset restores the post-load state: the executor behaves as if the
// program had just been reloaded on a fresh machine (counters restart at
// the head segment). EncryptInto calls it when a streaming program is
// dirty, as the interpreter reloads one per call; a device that reloads
// microcode takes a Fresh executor instead.
func (e *Exec) reset() {
	copy(e.reg, e.tr.InitReg)
	e.fb = e.tr.InitFB
	e.dirty = false
	e.periodPos = 0
}

// EncryptInto encrypts blocks into dst (len(dst) >= len(blocks); dst may
// alias blocks) and returns the sim.Stats the interpreter would have
// reported for exactly this call.
func (e *Exec) EncryptInto(dst, blocks []bits.Block128) (sim.Stats, error) {
	n := len(blocks)
	if n == 0 {
		return sim.Stats{}, nil
	}
	if len(dst) < n {
		return sim.Stats{}, fmt.Errorf("fastpath: dst holds %d blocks, need %d", len(dst), n)
	}

	// Stage the inputs (plus pipeline flush for streaming programs that
	// run their cycles) before writing any output, preserving the
	// interpreter's aliasing contract. The batch form never reads a flush
	// block, so it stages none.
	tr := e.tr
	need := n
	if tr.Streaming && tr.Batch == nil {
		need += tr.PipelineDepth + 1
	}
	if cap(e.inBuf) < need {
		e.inBuf = make([]bits.Block128, need)
	}
	in := e.inBuf[:need]
	copy(in, blocks)
	for i := n; i < need; i++ {
		in[i] = bits.Block128{}
	}

	if tr.Batch != nil {
		// Every streaming call starts from the post-load state, so the
		// data state is never read: the batch form computes the outputs
		// and the cycles only the counters.
		e.runBatch(dst[:n], in)
		return tr.callStats(n), nil
	}
	if e.dirty && tr.Streaming {
		// Streaming reload: the interpreter reloads for a clean pipeline;
		// the executor equivalently restarts from the post-load state.
		e.reset()
	}
	var stats sim.Stats
	inPos, outPos := 0, 0
	if !e.dirty {
		// The head segment ends exactly at its single output (checked at
		// compile time), so it never overruns n ≥ 1.
		e.runSeg(tr.Head, 0, in, &inPos, dst, n, &outPos, &stats)
	}
	for outPos < n {
		stop := e.runSeg(tr.Period, e.periodPos, in, &inPos, dst, n, &outPos, &stats)
		e.periodPos = stop % len(tr.Period)
	}
	e.dirty = true
	return stats, nil
}
