package fastpath_test

import (
	"math/rand"
	"slices"
	"testing"

	"cobra/internal/bits"
	"cobra/internal/equiv"
	"cobra/internal/fastpath"
	"cobra/internal/program"
)

// TestTraceIsWhatRuns pins the one-IR contract: Exec.Trace is the object
// the executor runs, shared by every Fresh executor, not a copy of it. It
// flips one bit of an immediate in a period cycle of rc6-20's trace, whose
// enabled cycles and batch form share one row list. Both the executor that
// compiled it and a Fresh one must then diverge from the interpreter on
// the same 6 blocks, and the translation validator must refuse the trace
// they ran.
func TestTraceIsWhatRuns(t *testing.T) {
	p, err := program.BuildRC6([]byte("one-compiled-ir!"), 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tr := ex.Trace()
	fresh := ex.Fresh()
	if fresh.Trace() != tr || ex.Trace() != tr {
		t.Fatal("executors of one compile hand out different traces")
	}
	if !p.Streaming || tr.Batch == nil {
		t.Fatal("rc6-20 has no batch form")
	}

	var flip *fastpath.TraceStep
find:
	for ti := range tr.Period {
		for r := range tr.Period[ti].Rows {
			for _, cell := range tr.Period[ti].Rows[r].Cells {
				if i := slices.IndexFunc(cell.Steps, func(st fastpath.TraceStep) bool {
					return st.Kind == fastpath.StepXorImm || st.Kind == fastpath.StepAddImm
				}); i >= 0 {
					flip = &cell.Steps[i]
					break find
				}
			}
		}
	}
	if flip == nil {
		t.Fatal("no immediate step in a period cycle")
	}
	flip.Imm ^= 1

	m, err := program.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := program.Load(m, p); err != nil {
		t.Fatal(err)
	}
	in := randomBlocks(rand.New(rand.NewSource(34)), 6)
	want := make([]bits.Block128, len(in))
	if _, err := program.Run(m, p, want, in, program.Opts{}); err != nil {
		t.Fatal(err)
	}
	for name, x := range map[string]*fastpath.Exec{"compiled": ex, "fresh": fresh} {
		got := make([]bits.Block128, len(in))
		if _, err := x.EncryptInto(got, in); err != nil {
			t.Fatal(err)
		}
		if slices.Equal(got, want) {
			t.Errorf("%s executor still matches the interpreter: it does not run Trace()", name)
		}
	}

	res := equiv.Validate(p.Words(), equiv.Config{Name: p.Name, Geometry: p.Geometry, Window: p.Window}, tr)
	if res.Proven {
		t.Fatalf("validator proved the mutated trace:\n%s", res)
	}
}
