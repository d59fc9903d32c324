package dataflow_test

import (
	"testing"
	"time"

	"cobra/internal/bench"
	"cobra/internal/dataflow"
	"cobra/internal/isa"
	"cobra/internal/program"
	"cobra/internal/vet"
)

// corpus builds every built-in program the repository ships (the cobra-vet
// -builtin set, bench.Builtins).
func corpus(t *testing.T) []*program.Program {
	t.Helper()
	progs, errs := bench.Builtins([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	for _, err := range errs {
		t.Fatal(err)
	}
	return progs
}

// TestBuiltinsAnalyzeClean pins the dataflow analysis over the whole
// built-in corpus: every program's abstract walk closes, produces outputs,
// and reports no findings — no uninitialized reads, no dead elements or
// stores, full key and plaintext taint on every output word.
func TestBuiltinsAnalyzeClean(t *testing.T) {
	for _, p := range corpus(t) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			res := p.Analyze()
			if !res.Complete {
				t.Errorf("abstract walk did not close (outputs=%d)", res.Outputs)
			}
			if res.Outputs == 0 {
				t.Errorf("no output cycles observed")
			}
			for _, f := range res.Findings {
				t.Errorf("unexpected finding: %s", f)
			}
			if res.Gates.ConfiguredElems == 0 || res.Gates.LiveElems != res.Gates.ConfiguredElems {
				t.Errorf("gate report not fully live: %+v", res.Gates)
			}
			if res.Timing.Configs == 0 || res.Timing.DatapathMHz <= 0 {
				t.Errorf("no timing result: %+v", res.Timing)
			}
			t.Logf("outputs=%d gates=%d/%d timing: %d cfgs, %.3f ns, %.3f MHz",
				res.Outputs, res.Gates.LiveGates, res.Gates.ConfiguredGates,
				res.Timing.Configs, res.Timing.CriticalPathNs, res.Timing.DatapathMHz)
		})
	}
}

// severityCount tallies findings by severity.
func severityCount(fs []vet.Finding) (warns, errs int) {
	for _, f := range fs {
		if f.Sev == vet.Error {
			errs++
		} else {
			warns++
		}
	}
	return
}

// TestReadyLoopCompletes walks a window-2 loop that raises ready and jumps
// back. It completes no instruction window, so a machine with go high
// spins in it forever without a datapath cycle. The walk holds go low,
// so every ready raise hands control back to it, and the state repeats
// at the second idle point.
func TestReadyLoopCompletes(t *testing.T) {
	prog := []isa.Instr{flag(isa.FlagReady, 0), {Op: isa.OpJmp, Data: 0}}
	done := make(chan *dataflow.Result, 1)
	go func() { done <- dataflow.Analyze(prog, dataflow.Config{Window: 2}) }()
	select {
	case res := <-done:
		if !res.Complete || res.Outputs != 0 || len(res.Findings) != 0 {
			t.Fatalf("complete=%t outputs=%d findings=%v; want a complete walk, no outputs, no findings",
				res.Complete, res.Outputs, res.Findings)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the walk of a ready-raising loop did not return")
	}
}
