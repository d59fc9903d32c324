package program

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/model"
	"cobra/internal/sim"
)

// chainCase is one control word written to the cell under test.
type chainCase struct {
	name string
	elem isa.Elem
	data uint64
	// like is, for an undefined encoding, the defined control word the
	// case must act as everywhere; 0 for a defined encoding.
	like uint64
}

// chainCases covers every mode value of E, A, B, C, D and F (the
// undefined B and F mode 3 included), every INSEL source, and one operand
// of each kind on every element that takes one: a secondary block, INER,
// the immediate, and the undefined source 6.
func chainCases() []chainCase {
	var cases []chainCase
	for m := uint8(0); m < 4; m++ {
		b := isa.BCfg{Mode: isa.BMode(m), Width: 1, Operand: isa.SrcINB}
		f := isa.FCfg{Mode: isa.FMode(m), Consts: [4]uint8{2, 3, 1, 1}}
		var bLike, fLike uint64
		if m == 3 {
			bLike = isa.BCfg{Mode: isa.BSub, Width: 1, Operand: isa.SrcINB}.Encode()
			fLike = isa.FCfg{Mode: isa.FBypass, Consts: f.Consts}.Encode()
		}
		cases = append(cases,
			chainCase{name: "E2-" + isa.EMode(m).String(), elem: isa.ElemE2,
				data: isa.ECfg{Mode: isa.EMode(m), AmtSrc: isa.SrcImm, Amt: 7}.Encode()},
			chainCase{name: "A1-" + isa.AOp(m).String(), elem: isa.ElemA1,
				data: isa.ACfg{Op: isa.AOp(m), Operand: isa.SrcINC, PreShift: 3, PreShiftRot: true}.Encode()},
			chainCase{name: "B-" + isa.BMode(m).String(), elem: isa.ElemB, data: b.Encode(), like: bLike},
			chainCase{name: "C-" + isa.CMode(m).String(), elem: isa.ElemC,
				data: isa.CCfg{Mode: isa.CMode(m), Page: 5, ByteSel: 2}.Encode()},
			chainCase{name: "D-" + isa.DMode(m).String(), elem: isa.ElemD,
				data: isa.DCfg{Mode: isa.DMode(m), Operand: isa.SrcIND}.Encode()},
			chainCase{name: "F-" + isa.FMode(m).String(), elem: isa.ElemF, data: f.Encode(), like: fLike},
		)
	}
	for s := uint8(0); s < 8; s++ {
		cases = append(cases, chainCase{name: "INSEL-" + isa.InselNames[s], elem: isa.ElemInsel,
			data: isa.InselCfg{Source: s}.Encode()})
	}
	for _, src := range []isa.Src{isa.SrcIND, isa.SrcINER, isa.SrcImm, isa.Src(6)} {
		words := []struct {
			elem       isa.Elem
			data, like uint64
		}{
			{isa.ElemE3, isa.ECfg{Mode: isa.ERotl, AmtSrc: src, Amt: 9, Neg: true}.Encode(),
				isa.ECfg{Mode: isa.ERotl, AmtSrc: isa.SrcImm, Neg: true}.Encode()},
			{isa.ElemA1, isa.ACfg{Op: isa.AXor, Operand: src, Imm: 0x01234567}.Encode(),
				isa.ACfg{Op: isa.AXor, Operand: isa.SrcImm}.Encode()},
			{isa.ElemB, isa.BCfg{Mode: isa.BAdd, Width: 2, Operand: src, Imm: 0x89abcdef}.Encode(),
				isa.BCfg{Mode: isa.BAdd, Width: 2, Operand: isa.SrcImm}.Encode()},
			{isa.ElemD, isa.DCfg{Mode: isa.DMul32, Operand: src, Imm: 0x0badf00d}.Encode(),
				isa.DCfg{Mode: isa.DMul32, Operand: isa.SrcImm}.Encode()},
		}
		for _, w := range words {
			c := chainCase{name: fmt.Sprintf("%s-%s", w.elem, src), elem: w.elem, data: w.data}
			if !src.Valid() {
				c.like = w.like
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// chainCellRow is the row of the cell under test; its column varies.
const chainCellRow = 1

// chainProgram is a hand-written base-geometry streaming program with one
// cell under test: it writes each column's eRAM word, XORs INER in at A2
// everywhere, registers row 3, loads the cell's LUTs and writes the case's
// control word to it, then selects external input, raises ready, busy and
// data-valid, and loops.
func chainProgram(name string, col int, elem isa.Elem, data uint64) *Program {
	b := &builder{}
	for c := 0; c < datapath.Cols; c++ {
		b.eramw(c, 0, 0, 0x9e3779b9*uint32(c+1))
	}
	b.cfge(isa.SliceAll(), isa.ElemER, isa.ERCfg{}.Encode())
	b.cfge(isa.SliceAll(), isa.ElemA2, aCfg(isa.AXor, isa.SrcINER))
	b.regRow(3, true)
	cell := isa.SliceAt(chainCellRow, col)
	var s8 [256]uint8
	var s4 [8][16]uint8
	for bank := 0; bank < 4; bank++ {
		for v := range s8 {
			s8[v] = uint8(v*(2*bank+3) + 17*bank + 1)
		}
		for pg := range s4 {
			for n := range s4[pg] {
				s4[pg][n] = uint8(n*(2*pg+1)+bank+pg) & 0xf
			}
		}
		b.loadS8(cell, bank, &s8)
		b.loadS4Pages(cell, bank, &s4)
	}
	b.cfge(cell, elem, data)
	b.streamingFlow(1)
	return &Program{
		Name: name, Cipher: "chain", Geometry: datapath.BaseGeometry(), Window: 1,
		Streaming: true, PipelineDepth: 1, Instrs: b.ins,
	}
}

// chainOutputs loads p on a fresh machine and runs it on the interpreter
// over calls of n blocks each.
func chainOutputs(t *testing.T, p *Program, calls [][]bits.Block128) (*sim.Machine, [][]bits.Block128, []sim.Stats) {
	t.Helper()
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(m, p); err != nil {
		t.Fatal(err)
	}
	outs := make([][]bits.Block128, len(calls))
	stats := make([]sim.Stats, len(calls))
	for i, in := range calls {
		outs[i] = make([]bits.Block128, len(in))
		if stats[i], err = Run(m, p, outs[i], in, Opts{}); err != nil {
			t.Fatal(err)
		}
	}
	return m, outs, stats
}

// TestChainEncodingsAgreeAcrossConsumers writes every element encoding to
// one cell of a small streaming program, on a plain column and on a MUL
// column, and requires every consumer of the decoded RCE chain to agree
// with the interpreter: the trace compiles and reproduces its outputs and
// counters, equiv proves it, the side-channel profiles agree, and the
// dataflow inventory and static timing count the chain's steps. An
// undefined encoding must act exactly as the defined word it stands for.
func TestChainEncodingsAgreeAcrossConsumers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var calls [][]bits.Block128
	for _, n := range []int{1, 2, 5} {
		in := make([]bits.Block128, n)
		for i := range in {
			for w := range in[i] {
				in[i][w] = rng.Uint32()
			}
		}
		calls = append(calls, in)
	}
	for _, col := range []int{0, 1} {
		for _, c := range chainCases() {
			if c.elem == isa.ElemD && !datapath.MulColumn(col) {
				continue
			}
			name := fmt.Sprintf("c%d-%s", col, c.name)
			t.Run(name, func(t *testing.T) {
				p := chainProgram(name, col, c.elem, c.data)
				m, want, wantStats := chainOutputs(t, p, calls)

				ex, err := p.Compile()
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				for i, in := range calls {
					got := make([]bits.Block128, len(in))
					st, err := ex.EncryptInto(got, in)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want[i]) || st != wantStats[i] {
						t.Fatalf("%d blocks: fastpath %v %+v, interpreter %v %+v",
							len(in), got, st, want[i], wantStats[i])
					}
				}
				if res := p.ValidateExec(ex); !res.Proven {
					t.Errorf("equiv: %v", res)
				}
				for _, f := range p.CheckConstantTime().Findings {
					if f.Code == "ct-profile-mismatch" {
						t.Errorf("ct: %v", f)
					}
				}

				df := p.Analyze()
				if !df.Complete {
					t.Fatalf("dataflow walk did not close: %v", df.Findings)
				}
				steps, regs := 0, 0
				for r := 0; r < p.Geometry.Rows; r++ {
					for cc := 0; cc < datapath.Cols; cc++ {
						steps += len(m.Array.RCE(r, cc).Chain().Steps())
						if m.Array.RCE(r, cc).Cfg.Reg.Enabled {
							regs++
						}
					}
				}
				if got := df.Gates.ConfiguredElems; got != steps+regs {
					t.Errorf("dataflow counts %d configured elements, the chains list %d steps and %d registers",
						got, steps, regs)
				}
				tm := model.Analyze(m.Array, model.DefaultDelays())
				if df.Timing.DatapathMHz != tm.DatapathMHz {
					t.Errorf("static timing %.3f MHz, the loaded array's %.3f MHz", df.Timing.DatapathMHz, tm.DatapathMHz)
				}

				if c.like == 0 {
					return
				}
				lp := chainProgram(name+"-like", col, c.elem, c.like)
				lm, likeOut, _ := chainOutputs(t, lp, calls)
				if !slices.EqualFunc(want, likeOut, slices.Equal) {
					t.Errorf("outputs differ from the defined word %#x's", c.like)
				}
				if ldf := lp.Analyze(); ldf.Gates != df.Gates || ldf.Timing != df.Timing {
					t.Errorf("dataflow %+v %+v, the defined word's %+v %+v", df.Gates, df.Timing, ldf.Gates, ldf.Timing)
				}
				if lt := model.Analyze(lm.Array, model.DefaultDelays()); lt.DatapathMHz != tm.DatapathMHz {
					t.Errorf("timing %.3f MHz, the defined word's %.3f MHz", tm.DatapathMHz, lt.DatapathMHz)
				}
			})
		}
	}
}
