package program

import (
	"testing"

	"cobra/internal/asm"
	"cobra/internal/isa"
)

// allPrograms builds every registered cipher at every legal unroll depth,
// in both directions.
func allPrograms(t *testing.T) []*Program {
	t.Helper()
	var out []*Program
	for _, s := range Specs() {
		for _, hw := range s.Depths {
			p, err := s.Build(testKey, hw)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
		for _, hw := range s.DecryptDepths {
			p, err := s.BuildDecrypt(testKey, hw)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
	}
	return out
}

// TestAllProgramsDisassembleRoundTrip disassembles every real cipher
// program and reassembles it: the result must be word-for-word identical
// microcode. This exercises the full assembler surface against production
// programs, not just synthetic statements.
func TestAllProgramsDisassembleRoundTrip(t *testing.T) {
	for _, p := range allPrograms(t) {
		words := p.Words()
		text, err := asm.Disassemble(words)
		if err != nil {
			t.Fatalf("%s: disassemble: %v", p.Name, err)
		}
		back, err := asm.Assemble(text)
		if err != nil {
			t.Fatalf("%s: reassemble: %v", p.Name, err)
		}
		if len(back) != len(words) {
			t.Fatalf("%s: length %d != %d", p.Name, len(back), len(words))
		}
		for i := range words {
			if words[i] != back[i] {
				in1, _ := isa.Unpack(words[i])
				in2, _ := isa.Unpack(back[i])
				t.Fatalf("%s: word %d differs:\n  %v\n  %v", p.Name, i, in1, in2)
			}
		}
	}
}

// TestAllProgramsFitIRAMAndValidate checks every configuration loads into
// the 4096-word iRAM and that every instruction decodes.
func TestAllProgramsFitIRAMAndValidate(t *testing.T) {
	for _, p := range allPrograms(t) {
		if len(p.Instrs) > isa.IRAMWords {
			t.Errorf("%s: %d instructions exceed the iRAM", p.Name, len(p.Instrs))
		}
		for i, in := range p.Instrs {
			if _, err := isa.Unpack(in.Pack()); err != nil {
				t.Errorf("%s: instruction %d invalid: %v", p.Name, i, err)
			}
		}
		if err := p.Geometry.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// TestProgramsLoadOnMatchingMachines loads every configuration to the idle
// point — a smoke test that every setup phase executes cleanly.
func TestProgramsLoadOnMatchingMachines(t *testing.T) {
	for _, p := range allPrograms(t) {
		m, err := NewMachine(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := Load(m, p); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}
