package dataflow_test

import (
	"testing"

	"cobra/internal/dataflow"
	"cobra/internal/isa"
	"cobra/internal/vet"
)

// Instruction construction helpers for seeded-defect programs (window 1,
// base geometry: every instruction is followed by one datapath cycle).

func flag(set, clear uint16) isa.Instr {
	return isa.Instr{Op: isa.OpCtlFlag, Data: isa.FlagCfg{Set: set, Clear: clear}.Encode()}
}

func halt() isa.Instr { return isa.Instr{Op: isa.OpHalt} }

func cfge(s isa.Slice, e isa.Elem, data uint64) isa.Instr {
	return isa.Instr{Op: isa.OpCfgElem, Slice: s, Elem: e, Data: data}
}

func eramw(col, bank, addr int, v uint32) isa.Instr {
	return isa.Instr{Op: isa.OpERAMWrite, Slice: isa.SliceCol(col),
		Data: isa.ERAMWriteCfg{Bank: uint8(bank), Addr: uint8(addr), Value: v}.Encode()}
}

func white(col int, mode isa.WhiteMode, key uint32) isa.Instr {
	return isa.Instr{Op: isa.OpCfgWhite,
		Data: isa.WhiteCfg{Col: uint8(col), Mode: mode, Key: key}.Encode()}
}

func inmux(mode isa.InMuxMode, bank, addr int) isa.Instr {
	return isa.Instr{Op: isa.OpCfgInMux,
		Data: isa.InMuxCfg{Mode: mode, Bank: uint8(bank), Addr: uint8(addr)}.Encode()}
}

// whitenAll XORs a key word onto every column's output so taint-no-key
// stays out of tests that target other analyzers.
func whitenAll() []isa.Instr {
	var out []isa.Instr
	for c := 0; c < 4; c++ {
		out = append(out, white(c, isa.WhiteXor, 0xdeadbeef))
	}
	return out
}

func analyze(t *testing.T, prog []isa.Instr) *dataflow.Result {
	t.Helper()
	res := dataflow.Analyze(prog, dataflow.Config{})
	if !res.Complete {
		t.Fatalf("abstract walk did not close; findings: %v", res.Findings)
	}
	return res
}

// requireFinding asserts a finding with the code and severity exists at the
// address.
func requireFinding(t *testing.T, res *dataflow.Result, code string, sev vet.Severity, addr int) {
	t.Helper()
	for _, f := range res.Findings {
		if f.Code == code && f.Addr == addr {
			if f.Sev != sev {
				t.Errorf("%s at %04x has severity %v, want %v", code, addr, f.Sev, sev)
			}
			return
		}
	}
	t.Errorf("missing finding %s at %04x; got %v", code, addr, res.Findings)
}

// requireNoCode asserts no finding carries the code.
func requireNoCode(t *testing.T, res *dataflow.Result, code string) {
	t.Helper()
	for _, f := range res.Findings {
		if f.Code == code {
			t.Errorf("unexpected %s finding: %s", code, f)
		}
	}
}

// TestSeededUninitRead reads a never-written eRAM cell into the ciphertext:
// r0.c0's A1 element XORs INER with ER pointed at bank 1, address 7, which
// nothing ever writes. The finding lands on the consuming element's
// configuration word.
func TestSeededUninitRead(t *testing.T) {
	prog := []isa.Instr{
		0: flag(isa.FlagReady, 0),
		1: cfge(isa.SliceAt(0, 0), isa.ElemER, isa.ERCfg{Bank: 1, Addr: 7}.Encode()),
		2: cfge(isa.SliceAt(0, 0), isa.ElemA1,
			isa.ACfg{Op: isa.AXor, Operand: isa.SrcINER}.Encode()),
	}
	prog = append(prog, whitenAll()...)
	prog = append(prog,
		flag(isa.FlagDValid, 0),
		isa.Instr{Op: isa.OpNop},
		halt(),
	)
	res := analyze(t, prog)
	requireFinding(t, res, "uninit-read", vet.Error, 2)
	if len(res.UninitReads) != 1 || res.UninitReads[0].Col != 0 ||
		res.UninitReads[0].Bank != 1 || res.UninitReads[0].Addr != 7 {
		t.Errorf("UninitReads = %v, want exactly c0.b1[7]", res.UninitReads)
	}
}

// TestSeededUninitRegister collects output while a registered row still
// holds its power-up contents: r0 is registered and DVALID is raised on the
// very first cycle, so the first collected block carries the register's
// power-up value.
func TestSeededUninitRegister(t *testing.T) {
	prog := []isa.Instr{flag(isa.FlagReady, 0)}
	prog = append(prog, whitenAll()...)
	prog = append(prog, flag(isa.FlagDValid, 0))
	regCfg := len(prog)
	prog = append(prog,
		// The cycle following this configuration presents row 0's power-up
		// register contents with data-valid already raised.
		cfge(isa.SliceRow(0), isa.ElemReg, isa.RegCfg{Enabled: true}.Encode()),
		halt(),
	)
	res := analyze(t, prog)
	requireFinding(t, res, "uninit-read", vet.Error, regCfg)
	requireNoCode(t, res, "taint-no-key")
}

// TestSeededDeadStore stores a word into an eRAM cell nothing reads.
func TestSeededDeadStore(t *testing.T) {
	prog := []isa.Instr{
		0: flag(isa.FlagReady, 0),
		1: eramw(2, 3, 200, 0x12345678), // orphan write
	}
	prog = append(prog, whitenAll()...)
	prog = append(prog,
		flag(isa.FlagDValid, 0),
		isa.Instr{Op: isa.OpNop},
		halt(),
	)
	res := analyze(t, prog)
	requireFinding(t, res, "dead-store", vet.Warn, 1)
	if len(res.DeadStores) != 1 || res.DeadStores[0] != 1 {
		t.Errorf("DeadStores = %v, want [1]", res.DeadStores)
	}
}

// TestSeededTaintNoKey drops the key load entirely: plaintext flows to the
// output with no whitening, no eRAM key material and no KEYREQ input, so
// every output word raises taint-no-key at the data-valid raise.
func TestSeededTaintNoKey(t *testing.T) {
	prog := []isa.Instr{
		0: flag(isa.FlagReady, 0),
		1: flag(isa.FlagDValid, 0),
		2: isa.Instr{Op: isa.OpNop},
		3: halt(),
	}
	res := analyze(t, prog)
	requireFinding(t, res, "taint-no-key", vet.Error, 1)
	requireNoCode(t, res, "taint-no-plain")
	if res.HasErrors() != true {
		t.Error("HasErrors() = false with taint errors present")
	}
}

// TestSeededTaintNoPlain plays key material from the eRAMs straight to the
// output: the ciphertext never depends on the plaintext.
func TestSeededTaintNoPlain(t *testing.T) {
	prog := []isa.Instr{flag(isa.FlagReady, 0)}
	for c := 0; c < 4; c++ {
		prog = append(prog, eramw(c, 0, 0, 0x1111), eramw(c, 0, 1, 0x2222))
	}
	// Playback reads address 0 on the cycle after the INMUX configuration
	// and address 1 on the data-valid cycle; the program halts before the
	// auto-incrementing counter walks into unwritten cells.
	prog = append(prog, inmux(isa.InERAM, 0, 0))
	dvalid := len(prog)
	prog = append(prog,
		flag(isa.FlagDValid, 0),
		halt(),
	)
	res := analyze(t, prog)
	requireFinding(t, res, "taint-no-plain", vet.Error, dvalid)
	requireNoCode(t, res, "taint-no-key")
	requireNoCode(t, res, "uninit-read")
}

// TestSeededDeadElement wires an active element's value into a dropped
// path: r0.c3's A1 XORs an immediate into the column, but row 1's column 3
// selects the previous row's input block via the bypass bus (INSEL = PD)
// and no other row-1 cell consumes block 3, so the element's output
// provably never reaches the ciphertext.
func TestSeededDeadElement(t *testing.T) {
	prog := []isa.Instr{
		0: flag(isa.FlagReady, 0),
		1: cfge(isa.SliceAt(0, 3), isa.ElemA1,
			isa.ACfg{Op: isa.AXor, Operand: isa.SrcImm, Imm: 0x55aa55aa}.Encode()),
		2: cfge(isa.SliceAt(1, 3), isa.ElemInsel, isa.InselCfg{Source: 7}.Encode()), // PD
	}
	prog = append(prog, whitenAll()...)
	prog = append(prog,
		flag(isa.FlagDValid, 0),
		isa.Instr{Op: isa.OpNop},
		halt(),
	)
	res := analyze(t, prog)
	requireFinding(t, res, "dead-element", vet.Warn, 1)
	if len(res.Dead) != 1 || res.Dead[0] != (dataflow.DeadElem{Row: 0, Col: 3, Elem: isa.ElemA1}) {
		t.Errorf("Dead = %v, want exactly r0.c3 A1", res.Dead)
	}
	if res.Gates.LiveElems != res.Gates.ConfiguredElems-1 {
		t.Errorf("gate report %+v: want exactly one dead element", res.Gates)
	}
}

// TestSeededExecFault: configuring the multiplier on a column without an
// RCE MUL is an execution fault, mirrored from the datapath's own check.
func TestSeededExecFault(t *testing.T) {
	prog := []isa.Instr{
		0: cfge(isa.SliceAt(0, 0), isa.ElemD, isa.DCfg{Mode: isa.DMul32, Operand: isa.SrcINB}.Encode()),
		1: halt(),
	}
	res := dataflow.Analyze(prog, dataflow.Config{})
	if res.Complete {
		t.Error("walk completed through an execution fault")
	}
	requireFinding(t, res, "exec-fault", vet.Error, 0)
}
