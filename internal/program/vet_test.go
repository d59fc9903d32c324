package program

import (
	"fmt"
	"slices"
	"testing"

	"cobra/internal/asm"
	"cobra/internal/bits"
	"cobra/internal/isa"
	"cobra/internal/sim"
	"cobra/internal/vet"
)

// allBuilders enumerates every builder at every supported unroll depth and
// window size — the full lint-clean regression matrix.
func allBuilders(t *testing.T) []*Program {
	t.Helper()
	progs := allPrograms(t)
	add := func(p *Program, err error) {
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for w := 1; w <= 16; w++ {
		add(BuildSerpentWindowed(testKey, w))
	}
	add(BuildGOST(gostKey))
	add(BuildRijndaelKeyed())
	return progs
}

// TestBuildersLintClean is the tentpole regression: every builder at every
// depth and window produces microcode with zero cobravet findings of any
// severity.
func TestBuildersLintClean(t *testing.T) {
	for _, p := range allBuilders(t) {
		name := p.Name
		if p.Window > 1 {
			name = fmt.Sprintf("%s/w=%d", name, p.Window)
		}
		t.Run(name, func(t *testing.T) {
			if fs := p.Vet(); len(fs) != 0 {
				for _, f := range fs {
					t.Errorf("%s", f)
				}
			}
		})
	}
}

// TestVetPathMatchesSimulator cross-checks the reachability vet's walk
// computes against the real machine: vet finds no unreachable code in any
// builder, so the machine, run through setup and three blocks, must
// execute every instruction of the program.
func TestVetPathMatchesSimulator(t *testing.T) {
	for _, p := range allBuilders(t) {
		name := fmt.Sprintf("%s/w=%d", p.Name, p.Window)
		t.Run(name, func(t *testing.T) {
			for _, f := range p.Vet() {
				if f.Code == "dead-code" {
					t.Fatalf("vet: %s", f)
				}
			}
			m, err := NewMachine(p)
			if err != nil {
				t.Fatal(err)
			}
			ran := make([]bool, len(p.Instrs))
			m.Trace = func(addr int, _ isa.Instr) { ran[addr] = true }
			if err := Load(m, p); err != nil {
				t.Fatal(err)
			}
			m.PushInput(make([]bits.Block128, 64)...)
			m.Go = true
			if reason, err := m.Run(sim.Limits{StopAfterOutputs: 3}); err != nil {
				t.Fatal(err)
			} else if reason != sim.StopOutputs {
				t.Fatalf("machine stopped with %v, want three outputs", reason)
			}
			if i := slices.Index(ran, false); i >= 0 {
				t.Errorf("vet reaches every address, but the machine never executes %04x: %s",
					i, asm.Line(p.Instrs[i]))
			}
		})
	}
}

// TestVetCatchesCorruptedBuilds seeds defects into a real windowed build
// and checks the verifier reports them — with the right address for the
// retargeted jump.
func TestVetCatchesCorruptedBuilds(t *testing.T) {
	p, err := BuildSerpentWindowed(testKey, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fs := p.Vet(); len(fs) != 0 {
		t.Fatalf("pristine build has findings: %v", fs)
	}

	t.Run("jmp-out-of-range", func(t *testing.T) {
		broken := *p
		broken.Instrs = append([]isa.Instr(nil), p.Instrs...)
		jmpAt := -1
		for i, in := range broken.Instrs {
			if in.Op == isa.OpJmp {
				jmpAt = i
			}
		}
		if jmpAt < 0 {
			t.Fatal("build has no JMP")
		}
		broken.Instrs[jmpAt].Data = uint64(len(broken.Instrs))
		found := false
		for _, f := range broken.Vet() {
			if f.Code == "jmp-range" && f.Addr == jmpAt && f.Sev == vet.Error {
				found = true
			}
		}
		if !found {
			t.Fatalf("retargeted JMP at %#x not reported", jmpAt)
		}
	})

	t.Run("dropped-nop-pad", func(t *testing.T) {
		// Deleting one NOP slot shifts every later window by one phase;
		// the steady loop re-enters its body misaligned.
		nopAt := -1
		for i, in := range p.Instrs {
			if in.Op == isa.OpNop {
				nopAt = i
			}
		}
		if nopAt < 0 {
			t.Skip("no NOP padding in this build")
		}
		broken := *p
		broken.Instrs = append([]isa.Instr(nil), p.Instrs[:nopAt]...)
		broken.Instrs = append(broken.Instrs, p.Instrs[nopAt+1:]...)
		// Deleting an instruction also shifts jump targets; retarget any
		// jump that pointed past the cut so only the alignment defect
		// remains.
		for i, in := range broken.Instrs {
			if in.Op == isa.OpJmp && int(in.Data&0xfff) > nopAt {
				broken.Instrs[i].Data = in.Data - 1
			}
		}
		var errs int
		for _, f := range broken.Vet() {
			if f.Sev == vet.Error {
				errs++
			}
		}
		if errs == 0 {
			t.Fatal("dropped NOP pad produced no errors")
		}
	})
}
