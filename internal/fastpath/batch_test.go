package fastpath_test

import (
	"math/rand"
	"slices"
	"testing"

	"cobra/internal/bits"
	"cobra/internal/isa"
	"cobra/internal/program"
)

// TestBandLayoutRefusesCrossBandRead gives rijndael-10 one cell, in the
// row right after its first register row, that reads the previous row's
// input: a value of the block one band above, in the same cycle. Blocks
// then interact, so the compiler must give that trace no batch form, and
// the trace must still run exactly, on the whole array, across fill,
// steady state and drain.
func TestBandLayoutRefusesCrossBandRead(t *testing.T) {
	key := make([]byte, 16)
	p, err := program.BuildRijndael(key, 10)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Trace().Batch == nil {
		t.Fatal("rijndael-10 has no batch form")
	}

	// Configure row 2, column 0 to read PA just before the streaming
	// flow starts, moving every jump target behind the insertion.
	at := slices.IndexFunc(p.Instrs, func(in isa.Instr) bool { return in.Op == isa.OpCfgInMux })
	if at < 0 {
		t.Fatal("no streaming flow in rijndael-10")
	}
	insel := isa.Instr{Op: isa.OpCfgElem, Slice: isa.SliceAt(2, 0), Elem: isa.ElemInsel,
		Data: isa.InselCfg{Source: 4}.Encode()}
	p.Instrs = slices.Insert(p.Instrs, at, insel)
	for i := range p.Instrs {
		if p.Instrs[i].Op == isa.OpJmp && int(p.Instrs[i].Data) >= at {
			p.Instrs[i].Data++
		}
	}
	ex, err = p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Trace().Batch != nil {
		t.Fatal("a trace whose row 2 reads row 1's input got a batch form")
	}

	m, err := program.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := program.Load(m, p); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	d := p.PipelineDepth
	for _, n := range []int{1, d - 1, d, d + 1, 2*d + 3} {
		in := randomBlocks(rng, n)
		want := make([]bits.Block128, n)
		wantStats, err := program.Run(m, p, want, in, program.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]bits.Block128, n)
		gotStats, err := ex.EncryptInto(got, in)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || gotStats != wantStats {
			t.Fatalf("%d blocks: fastpath differs from the interpreter", n)
		}
	}
}

// TestBatchFormBuiltins pins which builtins run on a batch form: every
// full unroll but TEA's, in both directions (serpent has one decryptor, an
// iterative one), and nothing else. A compiler change that drops the form
// from one of them fails here rather than only running slower.
func TestBatchFormBuiltins(t *testing.T) {
	want := map[string]bool{
		"rc6-20": true, "rc6-dec-20": true, "rijndael-10": true, "rijndael-dec-10": true,
		"serpent-32": true, "rc5-12": true, "rc5-dec-12": true,
		"simon64-44": true, "simon64-dec-44": true,
	}
	var got []string
	streaming := map[string]bool{}
	for _, c := range allBuilders() {
		p, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if p.Streaming {
			streaming[p.Name] = true
		}
		if ex.Trace().Batch != nil {
			got = append(got, p.Name)
			if !want[p.Name] {
				t.Errorf("%s has a batch form", p.Name)
			}
			delete(want, p.Name)
		}
	}
	for name := range want {
		t.Errorf("%s has no batch form", name)
	}
	for _, name := range []string{"tea-32", "tea-dec-32"} {
		if !streaming[name] {
			t.Errorf("%s is not a streaming builtin any more", name)
		}
	}
	t.Logf("batch form on %v", got)
}
