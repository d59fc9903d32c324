package program

import (
	"fmt"
	"testing"

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

// TestVetPathMatchesSimulator cross-checks the verifier's abstract walk
// against the real machine: the tick positions and instruction counts
// vet computes for the setup path must equal the simulator's counters
// when the same program runs to its idle point.
func TestVetPathMatchesSimulator(t *testing.T) {
	for _, p := range allBuilders(t) {
		name := fmt.Sprintf("%s/w=%d", p.Name, p.Window)
		t.Run(name, func(t *testing.T) {
			ps, err := vet.WalkToIdle(p.Instrs, p.Window)
			if err != nil {
				t.Fatal(err)
			}
			if ps.Stop != vet.StopIdle {
				t.Fatalf("setup path stops with %v, want idle at ready", ps.Stop)
			}
			m, err := NewMachine(p)
			if err != nil {
				t.Fatal(err)
			}
			m.Go = false
			if err := m.LoadProgram(p.Words()); err != nil {
				t.Fatal(err)
			}
			reason, err := m.Run(sim.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if reason != sim.StopWaitGo {
				t.Fatalf("machine stopped with %v, want StopWaitGo", reason)
			}
			st := m.Stats()
			if st.Cycles != ps.Ticks || st.Instructions != ps.Instructions || st.Nops != ps.Nops {
				t.Errorf("sim (cycles=%d instrs=%d nops=%d) != vet (ticks=%d instrs=%d nops=%d)",
					st.Cycles, st.Instructions, st.Nops, ps.Ticks, ps.Instructions, ps.Nops)
			}
			// The sequencer idles one past the ready-raise it just fetched.
			if pc := m.Seq.PC(); pc != ps.StopAddr+1 {
				t.Errorf("machine idles at pc %#x, vet stops at %#x", pc, ps.StopAddr)
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
