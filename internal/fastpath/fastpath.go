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
// output cadence — are refused by Compile; callers fall back to the
// interpreter (program.Run with Opts.Fast automates this). As a final guard,
// Compile replays the recorded inputs through the freshly compiled trace
// and requires bit-identical outputs and counters before returning it.
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
// performs state writes the compiled trace cannot replay). Callers fall
// back to the cycle-accurate interpreter.
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

// Exec is a compiled steady-state trace plus the mutable data state of one
// device (pipeline registers, feedback, resume point). Like the machine it
// replaces, an Exec is not safe for concurrent use; replicate executors to
// parallelize (internal/farm gets one per device).
type Exec struct {
	src Source

	head   []cTick // load-to-first-output cycle stream (ends at its output)
	period []cTick // steady repeating cycle stream (≥1 output per period)

	rows int

	initReg [][datapath.Cols]uint32
	initFB  bits.Block128

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
}

// Name returns the compiled program's name.
func (e *Exec) Name() string { return e.src.Name }

// Dirty reports whether the executor holds in-flight state from a previous
// call (mirrors sim.Machine.Dirty).
func (e *Exec) Dirty() bool { return e.dirty }

// Reset restores the post-load state: the executor behaves as if the
// program had just been reloaded on a fresh machine (counters restart at
// the head segment). core.Device calls this when microcode is reloaded.
func (e *Exec) Reset() {
	copy(e.reg, e.initReg)
	e.fb = e.initFB
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

	// Stage the inputs (plus pipeline flush for streaming programs) before
	// writing any output, preserving the interpreter's aliasing contract.
	need := n
	if e.src.Streaming {
		need += e.src.PipelineDepth + 1
	}
	if cap(e.inBuf) < need {
		e.inBuf = make([]bits.Block128, need)
	}
	in := e.inBuf[:need]
	copy(in, blocks)
	for i := n; i < need; i++ {
		in[i] = bits.Block128{}
	}

	if e.dirty && e.src.Streaming {
		// Streaming reload: the interpreter reloads for a clean pipeline;
		// the executor equivalently restarts from the post-load state.
		e.Reset()
	}
	var stats sim.Stats
	inPos, outPos := 0, 0
	if !e.dirty {
		// The head segment ends exactly at its single output (checked at
		// compile time), so it never overruns n ≥ 1.
		e.runSeg(e.head, 0, in, &inPos, dst, n, &outPos, &stats)
	}
	for outPos < n {
		stop := e.runSeg(e.period, e.periodPos, in, &inPos, dst, n, &outPos, &stats)
		e.periodPos = stop % len(e.period)
	}
	e.dirty = true
	return stats, nil
}

// secondaryBlock mirrors datapath's fixed interconnect: the block index of
// column c's k-th secondary input (k = 0 → INB, 1 → INC, 2 → IND).
func secondaryBlock(c, k int) int {
	b := k
	if b >= c {
		b++
	}
	return b
}
