package vet_test

import (
	"strings"
	"testing"

	"cobra/internal/isa"
	"cobra/internal/vet"
)

// Instruction construction helpers for seeded-defect programs.

func nop() isa.Instr  { return isa.Instr{Op: isa.OpNop} }
func halt() isa.Instr { return isa.Instr{Op: isa.OpHalt} }

func jmp(target int) isa.Instr {
	return isa.Instr{Op: isa.OpJmp, Data: uint64(target)}
}

func flag(set, clear uint16) isa.Instr {
	return isa.Instr{Op: isa.OpCtlFlag, Data: isa.FlagCfg{Set: set, Clear: clear}.Encode()}
}

func enoutAll() isa.Instr {
	return isa.Instr{Op: isa.OpEnOut, Slice: isa.Slice{Scope: isa.ScopeAll}}
}

func disoutAll() isa.Instr {
	return isa.Instr{Op: isa.OpDisOut, Slice: isa.Slice{Scope: isa.ScopeAll}}
}

// cfgeCAll configures every C element for 8→8 substitution — a structural
// word with no operand reads.
func cfgeCAll() isa.Instr {
	return isa.Instr{Op: isa.OpCfgElem, Slice: isa.Slice{Scope: isa.ScopeAll},
		Elem: isa.ElemC, Data: isa.CCfg{Mode: isa.CS8x8}.Encode()}
}

// cfgeCAllS4 is a conflicting C configuration (different data, same element).
func cfgeCAllS4() isa.Instr {
	return isa.Instr{Op: isa.OpCfgElem, Slice: isa.Slice{Scope: isa.ScopeAll},
		Elem: isa.ElemC, Data: isa.CCfg{Mode: isa.CS4x4}.Encode()}
}

// findingAt reports whether fs contains a finding with the code at the addr.
func findingAt(fs []vet.Finding, code string, addr int) bool {
	for _, f := range fs {
		if f.Code == code && f.Addr == addr {
			return true
		}
	}
	return false
}

// requireOnly asserts fs consists exactly of the expected (code, addr) pairs.
func requireOnly(t *testing.T, fs []vet.Finding, want map[string]int) {
	t.Helper()
	for code, addr := range want {
		if !findingAt(fs, code, addr) {
			t.Errorf("missing finding %s at %04x; got %v", code, addr, fs)
		}
	}
	for _, f := range fs {
		if addr, ok := want[f.Code]; !ok || addr != f.Addr {
			t.Errorf("unexpected finding %v", f)
		}
	}
}

func TestCleanProgramNoFindings(t *testing.T) {
	prog := []isa.Instr{
		disoutAll(),                       // 0
		cfgeCAll(),                        // 1: structural while disabled
		enoutAll(),                        // 2
		flag(isa.FlagReady, isa.FlagBusy), // 3: idle point
		flag(isa.FlagBusy, isa.FlagReady), // 4: accept work
		nop(),                             // 5
		flag(isa.FlagDValid, 0),           // 6: announce output
		nop(),                             // 7: enabled cycle presents it
		flag(0, isa.FlagDValid),           // 8
		jmp(3),                            // 9: back to the idle point
	}
	fs := vet.Check(prog, vet.Config{})
	if len(fs) != 0 {
		t.Fatalf("clean program produced findings: %v", fs)
	}
}

func TestUnbracketedReconfigW1(t *testing.T) {
	prog := []isa.Instr{
		disoutAll(), // 0
		enoutAll(),  // 1
		cfgeCAll(),  // 2: first structural word; the w=1 cycle after it...
		isa.Instr{Op: isa.OpLoadLUT, Slice: isa.Slice{Scope: isa.ScopeAll},
			LUT: isa.LUTAddr(false, 0, 0)}, // 3: ...splits the run while enabled
		halt(), // 4
	}
	fs := vet.Check(prog, vet.Config{})
	requireOnly(t, fs, map[string]int{"unbracketed-reconfig": 3})
}

func TestUnbracketedReconfigW2(t *testing.T) {
	prog := []isa.Instr{
		disoutAll(), // 0
		enoutAll(),  // 1: window boundary after this slot
		cfgeCAll(),  // 2: slot 0
		cfgeCAll(),  // 3: slot 1 — window boundary fires mid-run
		cfgeCAll(),  // 4: continues the split run
		halt(),      // 5
	}
	fs := vet.Check(prog, vet.Config{Window: 2})
	if !findingAt(fs, "unbracketed-reconfig", 4) {
		t.Fatalf("want unbracketed-reconfig at 0004, got %v", fs)
	}
}

func TestBracketedReconfigClean(t *testing.T) {
	// The same overfull reconfiguration run inside a DISOUT/ENOUT bracket
	// is the §3.4 idiom and must not fire.
	prog := []isa.Instr{
		disoutAll(), // 0
		cfgeCAll(),  // 1
		isa.Instr{Op: isa.OpLoadLUT, Slice: isa.Slice{Scope: isa.ScopeAll},
			LUT: isa.LUTAddr(false, 0, 0)}, // 2
		enoutAll(), // 3
		halt(),     // 4
	}
	fs := vet.Check(prog, vet.Config{})
	if len(fs) != 0 {
		t.Fatalf("bracketed reconfiguration flagged: %v", fs)
	}
}

func TestDValidLostCleared(t *testing.T) {
	prog := []isa.Instr{
		disoutAll(),             // 0: outputs disabled — cycles serve nothing
		flag(isa.FlagDValid, 0), // 1: raise data-valid
		flag(0, isa.FlagDValid), // 2: ...and drop it before any enabled cycle
		halt(),                  // 3
	}
	fs := vet.Check(prog, vet.Config{})
	requireOnly(t, fs, map[string]int{"dvalid-lost": 1})
}

func TestDValidLostAtIdle(t *testing.T) {
	prog := []isa.Instr{
		disoutAll(),             // 0
		flag(isa.FlagDValid, 0), // 1: raise data-valid while disabled
		flag(isa.FlagReady, 0),  // 2: idle without ever presenting it
		halt(),                  // 3
	}
	fs := vet.Check(prog, vet.Config{})
	if !findingAt(fs, "dvalid-lost", 1) {
		t.Errorf("want dvalid-lost at 0001, got %v", fs)
	}
	if !findingAt(fs, "dvalid-at-idle", 2) {
		t.Errorf("want dvalid-at-idle at 0002, got %v", fs)
	}
}

func TestWindowMisalign(t *testing.T) {
	// A 3-instruction loop at w=2 drifts the slot phase on every lap.
	prog := []isa.Instr{
		nop(),  // 0: slot 0
		nop(),  // 1: slot 1 — boundary
		nop(),  // 2: slot 0
		jmp(1), // 3: slot 1 — boundary; 1 re-executes at slot 0
	}
	fs := vet.Check(prog, vet.Config{Window: 2})
	if !findingAt(fs, "window-misalign", 1) {
		t.Fatalf("want window-misalign at 0001, got %v", fs)
	}
}

func TestReadyResyncExemptFromMisalign(t *testing.T) {
	// The idle point is re-entered from the setup path at one phase and
	// from the steady loop at another; the ready resync makes that legal.
	prog := []isa.Instr{
		nop(),                  // 0: phase 0
		flag(isa.FlagReady, 0), // 1: phase 1 on entry, resyncs to 0
		flag(0, isa.FlagReady), // 2: phase 0
		nop(),                  // 3
		nop(),                  // 4
		jmp(1),                 // 5: re-enters 1 at a different phase
	}
	fs := vet.Check(prog, vet.Config{Window: 2})
	if findingAt(fs, "window-misalign", 1) {
		t.Fatalf("ready resync point flagged as misaligned: %v", fs)
	}
}

func TestNoProgressLoop(t *testing.T) {
	prog := []isa.Instr{
		flag(isa.FlagReady, 0), // 0: resync — no cycle
		jmp(0),                 // 1: one slot of a w=2 window — no cycle
	}
	fs := vet.Check(prog, vet.Config{Window: 2})
	// The walk reports the state-repeat point, which lands on the loop's
	// jump back to the idle point.
	if !findingAt(fs, "no-progress-loop", 1) {
		t.Fatalf("want no-progress-loop at 0001, got %v", fs)
	}
}

func TestReadyTick(t *testing.T) {
	prog := []isa.Instr{
		flag(isa.FlagReady, 0), // 0: raise ready...
		nop(),                  // 1: ...and complete a window with it set
		jmp(0),                 // 2
	}
	fs := vet.Check(prog, vet.Config{})
	if !findingAt(fs, "ready-tick", 1) {
		t.Fatalf("want ready-tick at 0001, got %v", fs)
	}
}

func TestJmpRange(t *testing.T) {
	prog := []isa.Instr{nop(), jmp(5)}
	fs := vet.Check(prog, vet.Config{})
	requireOnly(t, fs, map[string]int{"jmp-range": 1})
}

func TestFallOffEnd(t *testing.T) {
	prog := []isa.Instr{nop(), nop()}
	fs := vet.Check(prog, vet.Config{})
	requireOnly(t, fs, map[string]int{"fall-off-end": 1})
}

func TestDeadCode(t *testing.T) {
	prog := []isa.Instr{jmp(3), nop(), nop(), halt()}
	fs := vet.Check(prog, vet.Config{})
	requireOnly(t, fs, map[string]int{"dead-code": 1})
	for _, f := range fs {
		if f.Code == "dead-code" && !strings.Contains(f.Msg, "0001..0002") {
			t.Errorf("dead-code message should name the range 0001..0002: %q", f.Msg)
		}
	}
}

func TestSliceRange(t *testing.T) {
	prog := []isa.Instr{
		isa.Instr{Op: isa.OpCfgElem, Slice: isa.Slice{Scope: isa.ScopeOne, Row: 7},
			Elem: isa.ElemER},
		halt(),
	}
	fs := vet.Check(prog, vet.Config{Rows: 4})
	requireOnly(t, fs, map[string]int{"slice-range": 0})
}

func TestLUTRange(t *testing.T) {
	prog := []isa.Instr{
		isa.Instr{Op: isa.OpLoadLUT, Slice: isa.Slice{Scope: isa.ScopeAll},
			LUT: isa.LUTAddr(true, 0, 16)},
		halt(),
	}
	fs := vet.Check(prog, vet.Config{})
	requireOnly(t, fs, map[string]int{"lut-range": 0})
}

func TestMulColumn(t *testing.T) {
	prog := []isa.Instr{
		isa.Instr{Op: isa.OpCfgElem, Slice: isa.Slice{Scope: isa.ScopeOne, Row: 0, Col: 0},
			Elem: isa.ElemD, Data: isa.DCfg{Mode: isa.DMul16, Operand: isa.SrcImm}.Encode()},
		halt(),
	}
	fs := vet.Check(prog, vet.Config{})
	requireOnly(t, fs, map[string]int{"mul-column": 0})
}

func TestINERUnconfigured(t *testing.T) {
	prog := []isa.Instr{
		isa.Instr{Op: isa.OpCfgElem, Slice: isa.Slice{Scope: isa.ScopeOne, Row: 0, Col: 0},
			Elem: isa.ElemA1, Data: isa.ACfg{Op: isa.AXor, Operand: isa.SrcINER}.Encode()},
		halt(),
	}
	fs := vet.Check(prog, vet.Config{})
	requireOnly(t, fs, map[string]int{"iner-unconfigured": 0})

	// Adding a CFGE ER covering the cell silences the warning.
	withER := append([]isa.Instr{
		isa.Instr{Op: isa.OpCfgElem, Slice: isa.Slice{Scope: isa.ScopeRow, Row: 0},
			Elem: isa.ElemER, Data: isa.ERCfg{Bank: 0, Addr: 0}.Encode()},
	}, prog...)
	if fs := vet.Check(withER, vet.Config{}); len(fs) != 0 {
		t.Fatalf("covered INER read still flagged: %v", fs)
	}
}

func TestConflictWrite(t *testing.T) {
	prog := []isa.Instr{
		cfgeCAll(),   // 0: slot 0
		cfgeCAllS4(), // 1: slot 1, same window, same element, different data
		halt(),       // 2
	}
	fs := vet.Check(prog, vet.Config{Window: 2})
	requireOnly(t, fs, map[string]int{"conflict-write": 1})
}

func TestConflictWriteAcrossWindowsClean(t *testing.T) {
	prog := []isa.Instr{
		cfgeCAll(),   // 0: window 1
		nop(),        // 1
		cfgeCAllS4(), // 2: window 2 — a legal reconfiguration
		nop(),        // 3
		halt(),       // 4
	}
	fs := vet.Check(prog, vet.Config{Window: 2})
	if findingAt(fs, "conflict-write", 2) {
		t.Fatalf("cross-window rewrite flagged as conflict: %v", fs)
	}
}

func TestEmptyProgram(t *testing.T) {
	fs := vet.Check(nil, vet.Config{})
	requireOnly(t, fs, map[string]int{"empty": 0})
}

func TestCheckWordsDecode(t *testing.T) {
	bad := isa.Word{Hi: 0xffff} // opcode 31: invalid
	fs := vet.CheckWords([]isa.Word{nop().Pack(), bad}, vet.Config{})
	requireOnly(t, fs, map[string]int{"decode": 1})
}

func TestJmpWideWarn(t *testing.T) {
	prog := []isa.Instr{
		isa.Instr{Op: isa.OpJmp, Data: 0x1000}, // 12-bit field truncates to 0
		halt(),
	}
	fs := vet.Check(prog, vet.Config{})
	if !findingAt(fs, "jmp-wide", 0) {
		t.Fatalf("want jmp-wide at 0000, got %v", fs)
	}
}

func TestFindingString(t *testing.T) {
	fs := vet.Check([]isa.Instr{nop(), jmp(9)}, vet.Config{})
	if len(fs) != 1 {
		t.Fatalf("got %v", fs)
	}
	s := fs[0].String()
	for _, want := range []string{"0001:", "error", "jmp-range", "[JMP 9]"} {
		if !strings.Contains(s, want) {
			t.Errorf("finding %q missing %q", s, want)
		}
	}
}
