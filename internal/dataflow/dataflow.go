// Package dataflow performs word-level def-use, liveness and taint
// analysis plus static per-window timing over COBRA microcode.
//
// cobravet (package vet) checks the control conventions of §3.4; this
// package checks what the datapath actually computes. COBRA control flow is
// deterministic — OpJmp is unconditional and the ready idle point only
// pauses the sequencer — so a program's configuration schedule is a single
// trace. The engine unrolls that trace with an abstract machine that
// mirrors sim.Machine.Run instruction for instruction and datapath.Array.Tick
// phase for phase, but replaces every 32-bit word with an abstract value:
// an interned set of definition facts (which element instances, eRAM
// stores, key and plaintext inputs the word structurally depends on). A
// shadow datapath.Array carries the configuration state, so decode,
// broadcast and slice semantics are the simulator's own code paths.
//
// The walk terminates when the complete abstract state repeats at a cycle
// boundary (the transition function is deterministic over interned state,
// so a repeat proves the fact flow periodic and every reachable dependency
// discovered); a step budget turns pathological programs into a finding
// instead of a stall. On top of the chains, four analyzers report:
//
//   - uninit-read (Error): a storage location — eRAM cell via INER or
//     playback, an RCE output register, the feedback register — is read
//     before its first write on the path to collected ciphertext;
//   - dead-element / dead-store (Warn): a configured, active element
//     instance (or an OpERAMWrite) whose value provably never reaches a
//     collected output word, with the element inventory priced against
//     internal/model's Table 4 gate counts as an effective-gate-count
//     report;
//   - taint-no-key / taint-no-plain (Error): a collected ciphertext word
//     not reachable from key material (eRAM stores, whitening keys, KEYREQ
//     input) or from plaintext — broken key injection or missing diffusion
//     caught before any known-answer test;
//   - static timing: every distinct element configuration observed at an
//     advancing cycle is folded through model.Analyze, reporting the
//     worst-case critical path and datapath clock across the whole
//     schedule, without running the simulator.
//
// Package program wires this up as Program.Analyze, and cmd/cobra-vet
// exposes it as -dataflow. The analysis is a gate, not a compiler input:
// trace compilation never runs it, and the regression tests pin the
// builtin corpus at zero findings.
//
// The finding codes above are this package's complete set. The
// side-channel codes — "secret-branch", "secret-eram-addr",
// "secret-lut-index", "ct-unproven", "ct-profile-mismatch" — live in
// package sca, which attaches a Tap (see tap.go) to this engine's walk and
// classifies the taint reaching address and control lanes instead of only
// collected outputs.
package dataflow

import (
	"fmt"

	"cobra/internal/asm"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/model"
	"cobra/internal/vet"
)

// Config describes the machine the program targets (mirrors vet.Config).
type Config struct {
	// Rows is the datapath row count (0: the base 4×4 geometry).
	Rows int
	// Window is the instruction window size w (0: 1).
	Window int
}

func (c Config) normalized() Config {
	if c.Rows == 0 {
		c.Rows = datapath.BaseRows
	}
	if c.Window == 0 {
		c.Window = 1
	}
	return c
}

// DeadElem names one provably dead element instance: active at some
// advancing cycle, yet its value never reaches a collected output word.
type DeadElem struct {
	Row, Col int
	Elem     isa.Elem
}

// GateReport prices the element inventory against the Table 4 gate counts:
// Configured covers every element instance active at any advancing cycle,
// Live only those whose values reach collected ciphertext. The difference
// is the effective-gate-count delta the dead-element findings represent.
type GateReport struct {
	ConfiguredElems int
	LiveElems       int
	ConfiguredGates int
	LiveGates       int
}

// TimingReport summarizes static timing across every distinct element
// configuration observed at an advancing cycle: the worst (slowest) result
// bounds the datapath clock for the whole schedule.
type TimingReport struct {
	// Configs is the number of distinct timing-relevant configurations.
	Configs int
	// CriticalPathNs is the worst critical path across configurations.
	CriticalPathNs float64
	// DatapathMHz is the corresponding maximum datapath clock.
	DatapathMHz float64
	// IRAMMHz is twice the datapath clock (§3.4 dual clocking).
	IRAMMHz float64
}

// Result is the full analysis output.
type Result struct {
	// Findings are the analyzer diagnostics, sorted by address; the codes
	// are "uninit-read", "dead-element", "dead-store", "taint-no-key",
	// "taint-no-plain", "exec-fault" and "walk-budget".
	Findings []vet.Finding
	// Complete reports that the abstract walk reached a repeated state (the
	// whole schedule was observed). Liveness claims — dead elements, dead
	// stores, the gate report — are only made on complete walks.
	Complete bool
	// Outputs is the number of collected output cycles observed.
	Outputs int
	// Gates is the effective-gate-count report (complete walks only).
	Gates GateReport
	// Timing is the static timing summary.
	Timing TimingReport
	// Dead lists the provably dead element instances behind the
	// dead-element findings (complete walks only).
	Dead []DeadElem
	// DeadStores lists the iRAM addresses of OpERAMWrite instructions whose
	// values never reach an output (complete walks only).
	DeadStores []int
	// UninitReads lists every never-written eRAM cell the trace consumes
	// (via INER or playback), whether or not the value reaches an output.
	// This is exactly the set datapath's uninit sentinel records
	// dynamically; the fuzz harness holds the two equal in both directions.
	UninitReads []datapath.ERAMRef
}

// HasErrors reports whether any finding is Error severity.
func (r *Result) HasErrors() bool {
	for _, f := range r.Findings {
		if f.Sev == vet.Error {
			return true
		}
	}
	return false
}

// Analyze runs the abstract walk and every analyzer over a decoded program.
func Analyze(prog []isa.Instr, cfg Config) *Result {
	return AnalyzeTap(prog, cfg, nil)
}

// addFinding appends a diagnostic with its disassembled source line.
func addFinding(res *Result, prog []isa.Instr, addr int, sev vet.Severity, code, msg string) {
	res.Findings = appendFinding(res.Findings, prog, addr, sev, code, msg)
}

func appendFinding(fs []vet.Finding, prog []isa.Instr, addr int, sev vet.Severity, code, msg string) []vet.Finding {
	var line string
	if addr >= 0 && addr < len(prog) {
		line = asm.Line(prog[addr])
	}
	return append(fs, vet.Finding{Addr: addr, Sev: sev, Code: code, Msg: msg, Line: line})
}

// elemGates prices one element instance against the Table 4 constants.
// INSEL contributes no gates (it is selection, not computation, and the
// model folds its multiplexing into the row overhead).
func elemGates(g model.ElementGates, e isa.Elem) int {
	switch e {
	case isa.ElemE1, isa.ElemE2, isa.ElemE3:
		return g.E
	case isa.ElemA1, isa.ElemA2:
		return g.A
	case isa.ElemB:
		return g.B
	case isa.ElemC:
		return g.C
	case isa.ElemD:
		return g.D
	case isa.ElemF:
		return g.F
	case isa.ElemReg:
		return g.Reg32
	}
	return 0
}

// describeCell renders an element-instance location for messages.
func describeCell(r, c int, e isa.Elem) string {
	return fmt.Sprintf("r%d.c%d %s", r, c, e)
}
