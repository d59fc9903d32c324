package program

import (
	"testing"

	"cobra/internal/equiv"
	"cobra/internal/fastpath"
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

// validateMutated compiles p, exports a fresh trace (Trace() deep-copies
// everything except the lookup tables, which mutators must copy before
// corrupting — they are shared with the live executor), applies the
// mutation, and validates the corrupted trace against the true microcode.
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
// contribution table (on a copy — the original is shared with the live
// executor) and requires rejection with a witness computed through the
// corrupted entries, exactly as the executor would compute them.
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
