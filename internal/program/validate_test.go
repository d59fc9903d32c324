package program

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cobra/internal/equiv"
	"cobra/internal/fastpath"
	"cobra/internal/isa"
)

// validationKey is the fixed key the validation tests build programs with.
func validationKey() []byte {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
	}
	return key
}

// TestValidateProvesBuiltins proves a representative slice of the built-in
// corpus equivalent (the full sweep is cobra-vet -equiv -builtin, run as
// the CI equiv-gate and in the cobra-vet tests).
func TestValidateProvesBuiltins(t *testing.T) {
	key := validationKey()
	gostKey := make([]byte, 32)
	for i := range gostKey {
		gostKey[i] = key[i%len(key)]
	}
	builds := []struct {
		name  string
		build func() (*Program, error)
	}{
		{"rc6-1", func() (*Program, error) { return BuildRC6(key, 1, 20) }},
		{"rc6-20", func() (*Program, error) { return BuildRC6(key, 20, 20) }},
		{"rijndael-1", func() (*Program, error) { return BuildRijndael(key, 1) }},
		{"serpent-1", func() (*Program, error) { return BuildSerpent(key, 1) }},
		{"gost-2", func() (*Program, error) { return BuildGOST(gostKey) }},
		{"rc5-1", func() (*Program, error) { return BuildRC5(key, 1, 12) }},
		{"rc5-dec-12", func() (*Program, error) { return BuildRC5Decrypt(key, 12, 12) }},
		{"tea-2", func() (*Program, error) { return BuildTEA(key, 2) }},
		{"simon64-44", func() (*Program, error) { return BuildSIMON(key, 44) }},
		{"blowfish-1", func() (*Program, error) { return BuildBlowfish(key, 1) }},
		{"des-1", func() (*Program, error) { return BuildDES(key[:8]) }},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			p, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Validate()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Proven {
				t.Fatalf("not proven:\n%s", res)
			}
			if res.Outputs == 0 || res.Inputs == 0 {
				t.Errorf("degenerate proof: %s", res)
			}
		})
	}
}

// TestValidateRefusesKeyHandshake pins the compile-refusal path: a program
// with the key-request handshake has no trace, so Validate returns the
// refusal as an error rather than a verdict.
func TestValidateRefusesKeyHandshake(t *testing.T) {
	p, err := BuildRijndaelKeyed()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Validate(); err == nil {
		t.Fatal("Validate() on a key-handshake program should refuse")
	}
}

// validateMutated compiles p, applies the mutation to the compiled trace in
// place, and validates the corrupted trace against the true microcode. The
// trace is the one its executor runs, but each call compiles a private
// executor, so no other test or device sees the mutation.
func validateMutated(t *testing.T, p *Program, mutate func(tr *fastpath.Trace) bool) *equiv.Result {
	t.Helper()
	ex, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tr := ex.Trace()
	if !mutate(tr) {
		t.Fatal("mutation found nothing to corrupt in the trace")
	}
	return equiv.Validate(p.Words(), equiv.Config{
		Name:     p.Name + "-mutated",
		Geometry: p.Geometry,
		Window:   p.Window,
	}, tr)
}

// requireRejected asserts the three properties every seeded defect must
// produce: an unproven verdict, a concrete mismatch, and a diverging-input
// witness whose two sides actually differ.
func requireRejected(t *testing.T, res *equiv.Result) {
	t.Helper()
	if res.Proven {
		t.Fatalf("corrupted trace was proven equivalent:\n%s", res)
	}
	if res.Mism == nil {
		t.Fatalf("rejection carries no mismatch:\n%s", res)
	}
	w := res.Mism.Witness
	if w == nil {
		t.Fatalf("mismatch carries no witness:\n%s", res)
	}
	if w.RefVal == w.FPVal {
		t.Fatalf("witness does not diverge: both sides %#08x\n%s", w.RefVal, res)
	}
}

// TestSeededDefectMutatedOp flips one compiled element operation (an
// immediate add becomes an immediate xor) and requires the validator to
// reject with a diverging witness.
func TestSeededDefectMutatedOp(t *testing.T) {
	p, err := BuildRC6(validationKey(), 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	res := validateMutated(t, p, func(tr *fastpath.Trace) bool {
		for ti := range tr.Period {
			for r := range tr.Period[ti].Rows {
				for c := range tr.Period[ti].Rows[r].Cells {
					steps := tr.Period[ti].Rows[r].Cells[c].Steps
					for si := range steps {
						if steps[si].Kind == fastpath.StepAddImm && steps[si].Imm != 0 {
							steps[si].Kind = fastpath.StepXorImm
							return true
						}
					}
				}
			}
		}
		return false
	})
	requireRejected(t, res)
}

// TestSeededDefectWrongElision marks one live compiled cell as elided
// (passthrough) and requires rejection: a compiled trace must never be
// able to drop a contributing operation silently.
func TestSeededDefectWrongElision(t *testing.T) {
	p, err := BuildRC6(validationKey(), 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	res := validateMutated(t, p, func(tr *fastpath.Trace) bool {
		for ti := range tr.Period {
			for r := range tr.Period[ti].Rows {
				for c := range tr.Period[ti].Rows[r].Cells {
					cell := &tr.Period[ti].Rows[r].Cells[c]
					if !cell.Passthrough && !cell.RegOnly && len(cell.Steps) > 0 {
						cell.Passthrough = true
						return true
					}
				}
			}
		}
		return false
	})
	requireRejected(t, res)
}

// TestSeededDefectCorruptedTTable corrupts one lane of a compiled GF(2^8)
// contribution table (on a copy — the original is shared with every step
// of the same configuration) and requires rejection with a witness
// computed through the corrupted entries, exactly as the executor would
// compute them.
func TestSeededDefectCorruptedTTable(t *testing.T) {
	p, err := BuildRijndael(validationKey(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := validateMutated(t, p, func(tr *fastpath.Trace) bool {
		for ti := range tr.Period {
			for r := range tr.Period[ti].Rows {
				for c := range tr.Period[ti].Rows[r].Cells {
					steps := tr.Period[ti].Rows[r].Cells[c].Steps
					for si := range steps {
						if steps[si].GF == nil {
							continue
						}
						corrupted := *steps[si].GF
						for v := range corrupted[1] {
							corrupted[1][v] ^= 0x00010000
						}
						steps[si].GF = &corrupted
						return true
					}
				}
			}
		}
		return false
	})
	requireRejected(t, res)
	if res.Mism.Ref == res.Mism.FP {
		t.Errorf("corrupted-table mismatch renders both sides identically:\n  %s", res.Mism.Ref)
	}
}

// flipImm flips one bit of the first immediate xor in rows, searching from
// the last row up, in copies: the row slice, and the step slice of the
// cell it changes. rows itself, shared with other cycles or the batch
// form, is left as it was.
func flipImm(t *testing.T, rows []fastpath.TraceRow) []fastpath.TraceRow {
	t.Helper()
	rows = slices.Clone(rows)
	for r := len(rows) - 1; r >= 0; r-- {
		for c := range rows[r].Cells {
			cell := &rows[r].Cells[c]
			if i := slices.IndexFunc(cell.Steps, func(st fastpath.TraceStep) bool {
				return st.Kind == fastpath.StepXorImm
			}); i >= 0 {
				cell.Steps = slices.Clone(cell.Steps)
				cell.Steps[i].Imm ^= 1
				return rows
			}
		}
	}
	t.Fatal("no immediate xor in the rows")
	return nil
}

// TestSeededDefectPrivateTickRows gives one period cycle of rijndael-10 a
// private copy of the row list that every enabled cycle and the batch
// form share, with one immediate flipped in its last band. The batch form
// still computes the cipher, but the trace's cycles no longer do, so the
// validator must refuse the trace with a witness.
func TestSeededDefectPrivateTickRows(t *testing.T) {
	p, err := BuildRijndael(validationKey(), 10)
	if err != nil {
		t.Fatal(err)
	}
	res := validateMutated(t, p, func(tr *fastpath.Trace) bool {
		if tr.Batch == nil {
			return false
		}
		last := &tr.Period[len(tr.Period)-1]
		last.Rows = flipImm(t, last.Rows)
		return true
	})
	requireRejected(t, res)
}

// TestSeededDefectBatchForm corrupts rijndael-10's batch form, leaving the
// trace's cycles as compiled, and requires the validator to refuse it,
// naming the block and what failed: its rows rotated by one, its last row
// dropped, and one immediate flipped in a private copy of its rows. The
// cycles still match the microcode, so only the batch-form proof can
// refuse these.
func TestSeededDefectBatchForm(t *testing.T) {
	p, err := BuildRijndael(validationKey(), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		mutate  func(rows []fastpath.TraceRow) []fastpath.TraceRow
		reason  string
		witness bool
	}{
		{"shifted", func(rows []fastpath.TraceRow) []fastpath.TraceRow {
			return append(slices.Clone(rows[1:]), rows[0])
		}, "batch form fails on block 0 col ", true},
		{"truncated", func(rows []fastpath.TraceRow) []fastpath.TraceRow {
			return rows[:len(rows)-1]
		}, "batch form has 19 rows, want 20", false},
		{"flipped", func(rows []fastpath.TraceRow) []fastpath.TraceRow {
			return flipImm(t, rows)
		}, "batch form fails on block 0 col ", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := validateMutated(t, p, func(tr *fastpath.Trace) bool {
				if tr.Batch == nil {
					return false
				}
				b := *tr.Batch
				b.Rows = c.mutate(b.Rows)
				tr.Batch = &b
				return true
			})
			if c.witness {
				requireRejected(t, res)
			} else if res.Proven {
				t.Fatalf("corrupted batch form was proven:\n%s", res)
			}
			if !strings.Contains(res.Reason, c.reason) {
				t.Fatalf("refusal does not name the block:\n%s", res)
			}
		})
	}
}

// TestBulkHazardsRefused splices each instruction a compiled trace cannot
// replay into rc6-1's bulk loop, right after its first ready raise. Trace
// compilation must refuse the spliced words with ErrNotSteady, and the
// validator must refuse them against the unspliced program's trace; both
// name the spliced instruction's address.
func TestBulkHazardsRefused(t *testing.T) {
	p, err := BuildRC6(validationKey(), 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tr := ex.Trace()
	at := 1 + slices.IndexFunc(p.Instrs, func(in isa.Instr) bool {
		return in.Op == isa.OpCtlFlag && isa.DecodeFlag(in.Data).Set&isa.FlagReady != 0
	})
	if at == 0 {
		t.Fatal("rc6-1 never raises ready")
	}
	for _, c := range []struct {
		name, what string
		in         isa.Instr
	}{
		{"ERAMW", "eRAM write", isa.Instr{Op: isa.OpERAMWrite, Slice: isa.SliceCol(0),
			Data: isa.ERAMWriteCfg{Bank: 3, Addr: 0xff, Value: 1}.Encode()}},
		{"LUTW", "LUT load", isa.Instr{Op: isa.OpLoadLUT, Slice: isa.SliceAt(0, 0),
			LUT: isa.LUTAddr(false, 0, 0)}},
		{"CAPT", "capture port enabled", isa.Instr{Op: isa.OpCfgCapture, Slice: isa.SliceCol(0),
			Data: isa.CaptureCfg{Enabled: true, Bank: 3}.Encode()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			spliced := *p
			spliced.Instrs = slices.Insert(slices.Clone(p.Instrs), at, c.in)
			for i, in := range spliced.Instrs {
				if in.Op == isa.OpJmp && int(in.Data) >= at {
					spliced.Instrs[i].Data++
				}
			}
			words := spliced.Words()
			want := fmt.Sprintf("%s at %#x during bulk encryption", c.what, at)
			_, err := fastpath.Compile(fastpath.Source{Name: p.Name, Words: words,
				Geometry: p.Geometry, Window: p.Window})
			if !errors.Is(err, fastpath.ErrNotSteady) || !strings.Contains(err.Error(), want) {
				t.Errorf("Compile: %v; want ErrNotSteady naming %q", err, want)
			}
			res := equiv.Validate(words, equiv.Config{Name: p.Name, Geometry: p.Geometry, Window: p.Window}, tr)
			if res.Proven || !strings.Contains(res.Reason, want) {
				t.Errorf("Validate: %s; want a refusal naming %q", res, want)
			}
		})
	}
}
