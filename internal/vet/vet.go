// Package vet statically verifies COBRA microcode (cobravet).
//
// §3.4 of the paper leaves the hardest parts of COBRA programming to
// convention: "the programmer must determine the optimal number of
// instructions that must be executed within a datapath clock cycle by
// examining the number of overfull and underfull instruction cycles",
// must bracket overfull reconfigurations with DISOUT/ENOUT, and must
// drive the ready/busy/data-valid protocol by hand. A mistake in any of
// these surfaces as silently wrong ciphertext at simulation time.
//
// This package analyses a decoded program without executing the datapath.
// COBRA control flow is deterministic — OpJmp is unconditional and the
// ready-flag idle point only pauses the sequencer without branching — so
// a program's instruction trace is a single path: a straight line from
// address 0 into a terminating HALT or a steady-state loop. Check walks
// that path with a small abstract machine state (window phase, global
// output enable, flag register, pending data-valid, reconfiguration-run
// tracking) and verifies:
//
//   - control flow: in-bounds JMP targets, no fall off the end of the
//     iRAM image, unreachable (dead) code, and that every steady-state
//     loop makes datapath progress (a loop that re-raises ready without
//     ever completing an instruction window would spin the sequencer
//     forever once go is asserted — the simulator's cycle budget counts
//     datapath cycles, so it cannot interrupt such a loop);
//   - instruction-window alignment: every revisited address executes at
//     a consistent slot phase. The ready flag resynchronizes the window
//     (§3.4), so alignment is checked relative to the idle points;
//     underfull NOP padding that drifts the phase between joins is the
//     defect this catches;
//   - reconfiguration discipline: a multi-instruction structural
//     reconfiguration must not be split by a datapath clock cycle while
//     outputs are enabled — the cycle would latch a half-applied
//     configuration. Splitting is legal inside a DISOUT/ENOUT bracket
//     (the §3.4 overfull idiom) and single configuration words that fit
//     their window are legal anywhere (the §3.4 instruction-window
//     idiom);
//   - flag protocol: data-valid must not be raised and then cleared (or
//     abandoned at an idle point) before an output-enabled datapath
//     cycle has presented the output; data-valid should not be left set
//     when ready is raised; no datapath cycle should fire with ready
//     still set;
//   - static ranges and conflicts: slice rows against the geometry,
//     shuffler indices, 4→4 LUT groups, multiplier configuration on
//     columns without an RCE MUL, conflicting same-element writes inside
//     one instruction window, and INER reads with no ER configuration
//     anywhere in the program.
//
// Findings carry a severity, the iRAM address, and the disassembled
// source line; package program wires this up as Program.Vet and the
// cobra-vet command lints the built-in Table 3 configurations and
// assembled .casm files.
package vet

import (
	"fmt"
	"sort"

	"cobra/internal/asm"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/rce"
)

// Severity classifies a finding.
type Severity uint8

const (
	// Warn marks protocol smells and dead code: the program simulates,
	// but not the way its author probably intended.
	Warn Severity = iota
	// Error marks defects that make the simulator fail, hang, or produce
	// wrong or lost output.
	Error
)

// String names the severity.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Finding is one diagnostic: what, how bad, and where.
type Finding struct {
	// Addr is the iRAM address of the offending instruction.
	Addr int
	// Sev is the severity.
	Sev Severity
	// Code is a stable machine-readable identifier, e.g. "window-misalign".
	Code string
	// Msg is the human-readable explanation.
	Msg string
	// Line is the instruction's canonical disassembly.
	Line string
}

// String renders the finding in the cobra-vet output format.
func (f Finding) String() string {
	return fmt.Sprintf("%04x: %s: %s: %s [%s]", f.Addr, f.Sev, f.Code, f.Msg, f.Line)
}

// Config describes the machine the program targets.
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

// maxWalkSteps bounds the abstract walk. The walk terminates on its own
// when the machine state repeats (the state space is finite), but a
// pathological program could thread many distinct flag states through a
// long loop; the cap turns that into a diagnostic instead of a stall.
const maxWalkSteps = 1 << 21

// CheckWords unpacks a packed image and checks it. Words that fail to
// decode become findings (code "decode") rather than errors, so corrupted
// images still produce a per-address report.
func CheckWords(words []isa.Word, cfg Config) []Finding {
	prog := make([]isa.Instr, 0, len(words))
	var fs []Finding
	for i, w := range words {
		in, err := isa.Unpack(w)
		if err != nil {
			fs = append(fs, Finding{Addr: i, Sev: Error, Code: "decode",
				Msg: err.Error(), Line: in.String()})
			in = isa.Instr{Op: isa.OpNop} // keep addresses aligned
		}
		prog = append(prog, in)
	}
	if len(fs) > 0 {
		// The image is corrupt; path-sensitive analysis of the patched
		// program would mislead more than help.
		return fs
	}
	return Check(prog, cfg)
}

// Check runs every analysis over a decoded program and returns the
// findings sorted by address. A clean program returns nil.
func Check(prog []isa.Instr, cfg Config) []Finding {
	cfg = cfg.normalized()
	c := &checker{prog: prog, cfg: cfg, seen: make(map[string]bool)}
	if len(prog) == 0 {
		c.add(0, Error, "empty", "program has no instructions")
		return c.findings
	}
	if len(prog) > isa.IRAMWords {
		c.add(0, Error, "iram-capacity",
			fmt.Sprintf("program of %d instructions exceeds iRAM capacity %d",
				len(prog), isa.IRAMWords))
	}
	c.staticChecks()
	c.checkINER()
	reached := c.walk()
	c.deadCode(reached)
	sort.Slice(c.findings, func(i, j int) bool {
		a, b := c.findings[i], c.findings[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		return a.Code < b.Code
	})
	return c.findings
}

type checker struct {
	prog     []isa.Instr
	cfg      Config
	findings []Finding
	seen     map[string]bool // dedup key: code@addr
}

// add records a finding once per (code, address).
func (c *checker) add(addr int, sev Severity, code, msg string) {
	key := fmt.Sprintf("%s@%d", code, addr)
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	var line string
	if addr >= 0 && addr < len(c.prog) {
		line = asm.Line(c.prog[addr])
	}
	c.findings = append(c.findings, Finding{Addr: addr, Sev: sev, Code: code, Msg: msg, Line: line})
}

// readySet reports whether the instruction raises the ready flag — the
// §3.4 idle point, which resynchronizes the instruction window.
func readySet(in isa.Instr) bool {
	return in.Op == isa.OpCtlFlag && isa.DecodeFlag(in.Data).Set&isa.FlagReady != 0
}

// structural reports whether the instruction changes the shape of the
// computation the next datapath cycle performs. Data-plane updates that
// the cipher mappings legitimately perform between enabled cycles —
// eRAM read-address walks (CFGE ER), eRAM writes, the input multiplexor,
// and flag traffic — are excluded: §3.4's per-pass key address walk and
// the feedback switch are single-word, window-fitting updates by design.
func structural(in isa.Instr) bool {
	switch in.Op {
	case isa.OpLoadLUT, isa.OpCfgShuf, isa.OpCfgWhite, isa.OpCfgCapture:
		return true
	case isa.OpCfgElem:
		return in.Elem != isa.ElemER
	}
	return false
}

// rowScoped reports whether the slice's row field addresses a row (and is
// therefore subject to the geometry bound). ScopeCol broadcasts down a
// column and ScopeAll over the array; both ignore the row field.
func rowScoped(s isa.Slice) bool {
	return s.Scope == isa.ScopeOne || s.Scope == isa.ScopeRow
}

// slicesOverlap reports whether two slice addresses share at least one RCE.
func slicesOverlap(a, b isa.Slice) bool {
	rowsAgree := !rowScoped(a) || !rowScoped(b) || a.Row == b.Row
	colScoped := func(s isa.Slice) bool {
		return s.Scope == isa.ScopeOne || s.Scope == isa.ScopeCol
	}
	colsAgree := !colScoped(a) || !colScoped(b) || a.Col == b.Col
	return rowsAgree && colsAgree
}

// staticChecks validates every instruction in isolation: field ranges the
// simulator rejects at execution time, plus JMP targets, which the
// hardened iRAM loader rejects at load time.
func (c *checker) staticChecks() {
	rows := c.cfg.Rows
	for addr, in := range c.prog {
		switch in.Op {
		case isa.OpJmp:
			if in.Data&^uint64(0xfff) != 0 {
				c.add(addr, Warn, "jmp-wide",
					fmt.Sprintf("JMP data %#x exceeds the 12-bit address field; the sequencer jumps to %#x",
						in.Data, in.Data&0xfff))
			}
			if t := int(in.Data & 0xfff); t >= len(c.prog) {
				c.add(addr, Error, "jmp-range",
					fmt.Sprintf("jump target %#x outside program of %d instructions", t, len(c.prog)))
			}
		case isa.OpCfgElem:
			if rowScoped(in.Slice) && int(in.Slice.Row) >= rows {
				c.add(addr, Error, "slice-range",
					fmt.Sprintf("slice row %d out of range (rows=%d)", in.Slice.Row, rows))
			}
			if in.Elem == isa.ElemD && in.Slice.Scope == isa.ScopeOne &&
				!datapath.MulColumn(int(in.Slice.Col)) {
				c.add(addr, Error, "mul-column",
					fmt.Sprintf("D element configured on r%d.c%d, but column %d has no RCE MUL",
						in.Slice.Row, in.Slice.Col, in.Slice.Col))
			}
		case isa.OpEnOut, isa.OpDisOut:
			if rowScoped(in.Slice) && int(in.Slice.Row) >= rows {
				c.add(addr, Error, "slice-range",
					fmt.Sprintf("slice row %d out of range (rows=%d)", in.Slice.Row, rows))
			}
		case isa.OpLoadLUT:
			if rowScoped(in.Slice) && int(in.Slice.Row) >= rows {
				c.add(addr, Error, "slice-range",
					fmt.Sprintf("slice row %d out of range (rows=%d)", in.Slice.Row, rows))
			}
			if space4, _, group := isa.SplitLUTAddr(in.LUT); space4 && group > 15 {
				c.add(addr, Error, "lut-range",
					fmt.Sprintf("4→4 LUT group %d out of range (16 nibble groups per bank)", group))
			}
		case isa.OpCfgShuf:
			if n := rows / 2; int(in.Slice.Row) >= n {
				c.add(addr, Error, "slice-range",
					fmt.Sprintf("shuffler %d out of range (rows=%d have %d shufflers)",
						in.Slice.Row, rows, n))
			}
		}
	}
}

// checkINER flags RCEs that are configured to read the embedded-RAM port
// (a SrcINER operand) without any CFGE ER anywhere in the program
// presenting a word on that port. The analysis is whole-program and
// flow-insensitive: the cipher mappings configure the read port in
// per-pass hooks far from the element configuration, so "configured
// anywhere" is the faithful contract. Cells are enumerated concretely —
// broadcast D configurations skip non-MUL columns exactly as the
// datapath does.
func (c *checker) checkINER() {
	rows := c.cfg.Rows
	type cell struct{ r, col int }
	erConfigured := make(map[cell]bool)
	forEach := func(s isa.Slice, skipPlainD bool, f func(cell)) {
		visit := func(r, col int) {
			if skipPlainD && !datapath.MulColumn(col) && s.Scope != isa.ScopeOne {
				return
			}
			f(cell{r, col})
		}
		switch s.Scope {
		case isa.ScopeOne:
			visit(int(s.Row), int(s.Col))
		case isa.ScopeCol:
			for r := 0; r < rows; r++ {
				visit(r, int(s.Col))
			}
		case isa.ScopeRow:
			for col := 0; col < datapath.Cols; col++ {
				visit(int(s.Row), col)
			}
		default:
			for r := 0; r < rows; r++ {
				for col := 0; col < datapath.Cols; col++ {
					visit(r, col)
				}
			}
		}
	}
	for _, in := range c.prog {
		if in.Op == isa.OpCfgElem && in.Elem == isa.ElemER {
			forEach(in.Slice, false, func(cl cell) { erConfigured[cl] = true })
		}
	}
	for addr, in := range c.prog {
		if in.Op != isa.OpCfgElem {
			continue
		}
		if st, active := rce.DecodeElem(in.Elem, in.Data); !active || st.Operand.From != rce.FromERAM {
			continue
		}
		if rowScoped(in.Slice) && int(in.Slice.Row) >= rows {
			continue // already a slice-range error
		}
		forEach(in.Slice, in.Elem == isa.ElemD, func(cl cell) {
			if !erConfigured[cl] {
				c.add(addr, Warn, "iner-unconfigured",
					fmt.Sprintf("r%d.c%d %s reads INER, but no CFGE ER in the program targets that RCE",
						cl.r, cl.col, in.Elem))
			}
		})
	}
}

// walkState is the abstract machine state at one point of the trace. It
// is comparable: the walk terminates when an exact state repeats.
type walkState struct {
	pc      int
	phase   int    // instruction slots into the current window
	enabled bool   // global datapath output enable (DISOUT/ENOUT all)
	flags   uint16 // the sequencer flag register

	// pending data-valid: the address that raised DVALID, or -1. It is
	// served by the first output-enabled datapath cycle; losing it first
	// (clearing DVALID, or idling at ready) means the block the flag
	// announced is never collected.
	pendAddr int

	// structural reconfiguration run: address of the immediately
	// preceding structural configuration word (-1 if the previous
	// instruction was anything else) and whether a datapath cycle fired
	// since it executed.
	armAddr   int
	armTicked bool
}

// cfgWrite records one CFGE inside the current instruction window for the
// conflicting-write check.
type cfgWrite struct {
	addr  int
	slice isa.Slice
	elem  isa.Elem
	data  uint64
}

// walk traces the program's (deterministic) execution path from address 0,
// mirroring the sim.Machine.Run semantics exactly: one slot per fetched
// instruction, a datapath cycle when the slot count reaches the window
// size, and a slot reset without a cycle at every ready-raise. It returns
// the set of reached addresses.
func (c *checker) walk() []bool {
	w := c.cfg.Window
	reached := make([]bool, len(c.prog))
	// firstPhase records the window phase each address was first executed
	// at; a later visit at a different phase is a misaligned join.
	firstPhase := make(map[int]int)
	type visit struct{ ticks int }
	memo := make(map[walkState]visit)
	var window []cfgWrite

	endWindow := func() { window = window[:0] }

	st := walkState{pendAddr: -1, armAddr: -1}
	ticks := 0
	for steps := 0; ; steps++ {
		if steps >= maxWalkSteps {
			c.add(st.pc, Warn, "walk-budget",
				"analysis budget exhausted before the execution path repeated; later path-sensitive findings may be incomplete")
			break
		}
		if st.pc >= len(c.prog) {
			c.add(len(c.prog)-1, Error, "fall-off-end",
				"execution runs past the end of the program; the paper's programs end in a jump back to the idle point or a halt")
			break
		}
		addr := st.pc
		in := c.prog[addr]
		reached[addr] = true

		if p, ok := firstPhase[st.pc]; ok {
			if p != st.phase && !readySet(in) {
				c.add(st.pc, Error, "window-misalign",
					fmt.Sprintf("address executes at window slot %d here but slot %d on another path; underfull windows need NOP padding to keep every join phase-consistent (§3.4)",
						st.phase, p))
			}
		} else {
			firstPhase[st.pc] = st.phase
		}

		if v, ok := memo[st]; ok {
			if v.ticks == ticks {
				c.add(st.pc, Error, "no-progress-loop",
					"steady-state loop completes no instruction window: with go asserted the sequencer spins forever without a datapath cycle")
			}
			break // exact state repeat: the trace is periodic from here on
		}
		memo[st] = visit{ticks: ticks}

		// --- execute -----------------------------------------------------
		halt := false
		jumped := false
		isReady := false
		switch in.Op {
		case isa.OpHalt:
			halt = true
		case isa.OpJmp:
			t := int(in.Data & 0xfff)
			if t >= len(c.prog) {
				halt = true // jmp-range already reported; the sim would fault here
			} else {
				st.pc = t
				jumped = true
			}
		case isa.OpEnOut:
			if in.Slice.Scope == isa.ScopeAll {
				st.enabled = true
			}
		case isa.OpDisOut:
			if in.Slice.Scope == isa.ScopeAll {
				st.enabled = false
			}
		case isa.OpCtlFlag:
			cfg := isa.DecodeFlag(in.Data)
			isReady = cfg.Set&isa.FlagReady != 0
			if st.pendAddr >= 0 && cfg.Clear&isa.FlagDValid != 0 && cfg.Set&isa.FlagDValid == 0 {
				c.add(st.pendAddr, Error, "dvalid-lost",
					"data-valid raised here but cleared again before any output-enabled datapath cycle; the external system never sees the block")
				st.pendAddr = -1
			}
			st.flags = (st.flags &^ cfg.Clear) | cfg.Set // set-dominant, as in iram
			if cfg.Set&isa.FlagDValid != 0 && st.pendAddr < 0 {
				st.pendAddr = addr
			}
			if isReady {
				if st.pendAddr >= 0 {
					c.add(st.pendAddr, Error, "dvalid-lost",
						"data-valid raised here but the program reaches the ready idle point before any output-enabled datapath cycle; the external system never sees the block")
					st.pendAddr = -1
				}
				if st.flags&isa.FlagDValid != 0 {
					c.add(addr, Warn, "dvalid-at-idle",
						"ready raised with data-valid still set; a stale data-valid makes the next block's first advancing cycle look like output")
				}
			}
		case isa.OpCfgElem:
			for _, prev := range window {
				if prev.elem == in.Elem && prev.data != in.Data &&
					slicesOverlap(prev.slice, in.Slice) {
					c.add(addr, Warn, "conflict-write",
						fmt.Sprintf("%s configuration conflicts with the write at %04x in the same instruction window; only the later word takes effect at the cycle boundary",
							in.Elem, prev.addr))
				}
			}
			window = append(window, cfgWrite{addr: addr, slice: in.Slice, elem: in.Elem, data: in.Data})
		}

		if structural(in) {
			if st.enabled && st.armAddr >= 0 && st.armTicked {
				c.add(addr, Error, "unbracketed-reconfig",
					fmt.Sprintf("reconfiguration run starting at %04x is split by a datapath cycle while outputs are enabled; bracket it with DISOUT/ENOUT (§3.4 overfull cycles) or widen the instruction window",
						st.armAddr))
			}
			st.armAddr, st.armTicked = addr, false
		} else {
			st.armAddr, st.armTicked = -1, false
		}

		if halt {
			break
		}

		// --- advance, mirroring sim.Machine.Run --------------------------
		if !jumped {
			st.pc++
		}
		if isReady {
			// The idle point resynchronizes the dual clocks: the window
			// restarts with no datapath cycle, whether or not the machine
			// waits for go.
			st.phase = 0
			st.armAddr, st.armTicked = -1, false
			endWindow()
			continue
		}
		st.phase++
		if st.phase < w {
			continue
		}
		// End of instruction window: one datapath clock cycle.
		st.phase = 0
		ticks++
		endWindow()
		if st.armAddr >= 0 {
			st.armTicked = true
		}
		if st.flags&isa.FlagReady != 0 {
			c.add(addr, Warn, "ready-tick",
				"datapath cycle fires with ready still set; clear ready before resuming work so the external system sees a well-ordered busy/ready handshake")
		}
		if st.enabled && st.pendAddr >= 0 {
			st.pendAddr = -1 // the enabled cycle presents the data-valid output
		}
	}
	return reached
}

// deadCode reports unreachable address ranges, one finding per contiguous
// run.
func (c *checker) deadCode(reached []bool) {
	for i := 0; i < len(reached); i++ {
		if reached[i] {
			continue
		}
		j := i
		for j+1 < len(reached) && !reached[j+1] {
			j++
		}
		msg := "instruction is unreachable"
		if j > i {
			msg = fmt.Sprintf("instructions %04x..%04x are unreachable", i, j)
		}
		c.add(i, Warn, "dead-code", msg)
		i = j
	}
}
