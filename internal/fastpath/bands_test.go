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
// input: a value of the block one band above, in the same cycle. The
// compiler must give that trace no band layout, and the trace must still
// run exactly, on the whole array, across fill, steady state and drain.
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
	if ex.Trace().Bands == nil {
		t.Fatal("rijndael-10 has no band layout")
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
	if bands := ex.Trace().Bands; bands != nil {
		t.Fatalf("a trace whose row 2 reads row 1's input got band layout %v", bands)
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
