package rce

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cobra/internal/bits"
	"cobra/internal/isa"
)

func TestIdentityConfigPassesPrimaryInput(t *testing.T) {
	f := func(a, b, c, d, er uint32) bool {
		r := New(false)
		in := Inputs{Port: [8]uint32{a, b, c, d}, INER: er}
		return r.Eval(&in) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInselSelectsBlocks(t *testing.T) {
	in := Inputs{Port: [8]uint32{10, 20, 30, 40, 50, 60, 70, 80}}
	for s := uint8(0); s < 8; s++ {
		r := New(false)
		if err := r.ApplyElem(isa.ElemInsel, isa.InselCfg{Source: s}.Encode()); err != nil {
			t.Fatal(err)
		}
		if got, want := r.Eval(&in), in.Port[s]; got != want {
			t.Errorf("INSEL=%s: got %d, want %d", isa.InselNames[s], got, want)
		}
	}
}

// TestInputsSelect resolves every 3-bit operand source encoding through
// the decode and the inputs: the four row-input ports, INER, the
// immediate, and the two undefined encodings, which select 0.
func TestInputsSelect(t *testing.T) {
	in := Inputs{Port: [8]uint32{1, 2, 3, 4}, INER: 5}
	cases := []struct {
		src  isa.Src
		want uint32
	}{
		{isa.SrcINA, 1}, {isa.SrcINB, 2}, {isa.SrcINC, 3},
		{isa.SrcIND, 4}, {isa.SrcINER, 5}, {isa.SrcImm, 99},
		{isa.Src(6), 0}, {isa.Src(7), 0},
	}
	for _, c := range cases {
		if got := in.read(operand(c.src, 99)); got != c.want {
			t.Errorf("operand(%v) = %d, want %d", c.src, got, c.want)
		}
	}
}

func applyElem(t *testing.T, r *RCE, e isa.Elem, data uint64) {
	t.Helper()
	if err := r.ApplyElem(e, data); err != nil {
		t.Fatal(err)
	}
}

func TestEElementModes(t *testing.T) {
	in := Inputs{Port: [8]uint32{0x80000001, 3}}
	cases := []struct {
		cfg  isa.ECfg
		want uint32
	}{
		{isa.ECfg{Mode: isa.EShl, AmtSrc: isa.SrcImm, Amt: 4}, 0x00000010},
		{isa.ECfg{Mode: isa.EShr, AmtSrc: isa.SrcImm, Amt: 4}, 0x08000000},
		{isa.ECfg{Mode: isa.ERotl, AmtSrc: isa.SrcImm, Amt: 1}, 0x00000003},
		{isa.ECfg{Mode: isa.EBypass}, 0x80000001},
		// Data-dependent amount: low 5 bits of INB = 3.
		{isa.ECfg{Mode: isa.ERotl, AmtSrc: isa.SrcINB}, bits.RotL(0x80000001, 3)},
	}
	for _, c := range cases {
		r := New(false)
		applyElem(t, r, isa.ElemE1, c.cfg.Encode())
		if got := r.Eval(&in); got != c.want {
			t.Errorf("E %+v: got %#x, want %#x", c.cfg, got, c.want)
		}
	}
}

func TestEElementAllThreeInstances(t *testing.T) {
	// E1, E2 and E3 each rotate by 1; composition must rotate by 3.
	r := New(false)
	cfg := isa.ECfg{Mode: isa.ERotl, AmtSrc: isa.SrcImm, Amt: 1}.Encode()
	applyElem(t, r, isa.ElemE1, cfg)
	applyElem(t, r, isa.ElemE2, cfg)
	applyElem(t, r, isa.ElemE3, cfg)
	f := func(x uint32) bool {
		return r.Eval(&Inputs{Port: [8]uint32{x}}) == bits.RotL(x, 3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAElementOps(t *testing.T) {
	in := Inputs{Port: [8]uint32{0xf0f0f0f0, 0x0ff00ff0}}
	cases := []struct {
		op   isa.AOp
		want uint32
	}{
		{isa.AXor, 0xf0f0f0f0 ^ 0x0ff00ff0},
		{isa.AAnd, 0xf0f0f0f0 & 0x0ff00ff0},
		{isa.AOr, 0xf0f0f0f0 | 0x0ff00ff0},
		{isa.ABypass, 0xf0f0f0f0},
	}
	for _, c := range cases {
		r := New(false)
		applyElem(t, r, isa.ElemA1, isa.ACfg{Op: c.op, Operand: isa.SrcINB}.Encode())
		if got := r.Eval(&in); got != c.want {
			t.Errorf("A %v: got %#x, want %#x", c.op, got, c.want)
		}
	}
}

func TestAElementImmediate(t *testing.T) {
	r := New(false)
	applyElem(t, r, isa.ElemA1, isa.ACfg{Op: isa.AXor, Operand: isa.SrcImm, Imm: 0xdeadbeef}.Encode())
	if got := r.Eval(&Inputs{Port: [8]uint32{0}}); got != 0xdeadbeef {
		t.Errorf("A imm: got %#x", got)
	}
}

func TestAElementPreShift(t *testing.T) {
	// x ^ (op << 3), the Serpent linear-transform primitive.
	r := New(false)
	applyElem(t, r, isa.ElemA2, isa.ACfg{Op: isa.AXor, Operand: isa.SrcINB, PreShift: 3}.Encode())
	f := func(x, y uint32) bool {
		return r.Eval(&Inputs{Port: [8]uint32{x, y}}) == x^(y<<3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Rotate variant.
	applyElem(t, r, isa.ElemA2, isa.ACfg{Op: isa.AXor, Operand: isa.SrcINB, PreShift: 7, PreShiftRot: true}.Encode())
	g := func(x, y uint32) bool {
		return r.Eval(&Inputs{Port: [8]uint32{x, y}}) == x^bits.RotL(y, 7)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestBElementWidths(t *testing.T) {
	r := New(false)
	applyElem(t, r, isa.ElemB, isa.BCfg{Mode: isa.BAdd, Width: 2, Operand: isa.SrcINB}.Encode())
	if got := r.Eval(&Inputs{Port: [8]uint32{0xffffffff, 2}}); got != 1 {
		t.Errorf("B add32: got %#x, want 1", got)
	}
	applyElem(t, r, isa.ElemB, isa.BCfg{Mode: isa.BAdd, Width: 0, Operand: isa.SrcINB}.Encode())
	if got := r.Eval(&Inputs{Port: [8]uint32{0x00ff00ff, 0x00010001}}); got != 0 {
		t.Errorf("B add8 lanes: got %#x, want 0", got)
	}
	// The undefined mode 3 subtracts, like SUB.
	for _, mode := range []isa.BMode{isa.BSub, 3} {
		applyElem(t, r, isa.ElemB, isa.BCfg{Mode: mode, Width: 2, Operand: isa.SrcImm, Imm: 5}.Encode())
		if got := r.Eval(&Inputs{Port: [8]uint32{3}}); got != 0xfffffffe {
			t.Errorf("B %v imm: got %#x", mode, got)
		}
	}
}

func TestCElementS8x8(t *testing.T) {
	r := New(false)
	// Each lane's table maps v -> v+lane+1 (mod 256).
	for lane := 0; lane < 4; lane++ {
		for v := 0; v < 256; v++ {
			r.LUT.S8[lane][v] = uint8(v + lane + 1)
		}
	}
	applyElem(t, r, isa.ElemC, isa.CCfg{Mode: isa.CS8x8}.Encode())
	got := r.Eval(&Inputs{Port: [8]uint32{0x00000000}})
	want := uint32(1) | 2<<8 | 3<<16 | 4<<24
	if got != want {
		t.Errorf("C s8x8: got %#x, want %#x", got, want)
	}
}

func TestCElementS4x4Paged(t *testing.T) {
	r := New(false)
	// Page p of every table maps n -> n XOR p.
	for tbl := 0; tbl < 4; tbl++ {
		for page := 0; page < 8; page++ {
			for n := 0; n < 16; n++ {
				r.LUT.S4[tbl][page*16+n] = uint8(n ^ page)
			}
		}
	}
	for page := uint8(0); page < 8; page++ {
		applyElem(t, r, isa.ElemC, isa.CCfg{Mode: isa.CS4x4, Page: page}.Encode())
		in := uint32(0x76543210)
		got := r.Eval(&Inputs{Port: [8]uint32{in}})
		var want uint32
		for lane := 0; lane < 8; lane++ {
			n := in >> (4 * uint(lane)) & 0xf
			want |= (n ^ uint32(page)) << (4 * uint(lane))
		}
		if got != want {
			t.Errorf("C s4x4 page %d: got %#x, want %#x", page, got, want)
		}
	}
}

func TestCElementS8to32(t *testing.T) {
	r := New(false)
	for bank := 0; bank < 4; bank++ {
		for v := 0; v < 256; v++ {
			r.LUT.S8[bank][v] = uint8(v ^ (bank << 4))
		}
	}
	applyElem(t, r, isa.ElemC, isa.CCfg{Mode: isa.CS8to32, ByteSel: 2}.Encode())
	in := uint32(0x00AB0000) // byte 2 = 0xAB
	got := r.Eval(&Inputs{Port: [8]uint32{in}})
	want := uint32(0xab) | uint32(0xab^0x10)<<8 | uint32(0xab^0x20)<<16 | uint32(0xab^0x30)<<24
	if got != want {
		t.Errorf("C s8to32: got %#x, want %#x", got, want)
	}
}

func TestDElementRequiresMul(t *testing.T) {
	r := New(false)
	if err := r.ApplyElem(isa.ElemD, isa.DCfg{Mode: isa.DMul32}.Encode()); err == nil {
		t.Error("expected error configuring D on plain RCE")
	}
	m := New(true)
	if err := m.ApplyElem(isa.ElemD, isa.DCfg{Mode: isa.DMul32}.Encode()); err != nil {
		t.Errorf("unexpected error on RCE MUL: %v", err)
	}
}

func TestDElementModes(t *testing.T) {
	in := Inputs{Port: [8]uint32{7, 6}}
	cases := []struct {
		cfg  isa.DCfg
		want uint32
	}{
		{isa.DCfg{Mode: isa.DMul32, Operand: isa.SrcINB}, 42},
		{isa.DCfg{Mode: isa.DMul16, Operand: isa.SrcINB}, 42},
		{isa.DCfg{Mode: isa.DSquare}, 49},
		{isa.DCfg{Mode: isa.DBypass}, 7},
		{isa.DCfg{Mode: isa.DMul32, Operand: isa.SrcImm, Imm: 3}, 21},
	}
	for _, c := range cases {
		r := New(true)
		applyElem(t, r, isa.ElemD, c.cfg.Encode())
		if got := r.Eval(&in); got != c.want {
			t.Errorf("D %+v: got %d, want %d", c.cfg, got, c.want)
		}
	}
}

func TestDSquareMatchesSelfMul(t *testing.T) {
	r := New(true)
	applyElem(t, r, isa.ElemD, isa.DCfg{Mode: isa.DSquare}.Encode())
	m := New(true)
	applyElem(t, m, isa.ElemD, isa.DCfg{Mode: isa.DMul32, Operand: isa.SrcINA}.Encode())
	f := func(x uint32) bool {
		in := Inputs{Port: [8]uint32{x}}
		return r.Eval(&in) == m.Eval(&in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFElementLanes(t *testing.T) {
	r := New(false)
	applyElem(t, r, isa.ElemF, isa.FCfg{Mode: isa.FLanes, Consts: [4]uint8{2, 2, 2, 2}}.Encode())
	f := func(x uint32) bool {
		return r.Eval(&Inputs{Port: [8]uint32{x}}) == bits.GFMulWord(x, [4]uint8{2, 2, 2, 2})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// The undefined mode 3 is a bypass.
	applyElem(t, r, isa.ElemF, isa.FCfg{Mode: 3, Consts: [4]uint8{2, 2, 2, 2}}.Encode())
	if n := len(r.Chain().Steps()); n != 0 {
		t.Errorf("F mode 3 decodes to %d steps, want a bypass", n)
	}
}

func TestFElementMDSMixColumns(t *testing.T) {
	r := New(false)
	applyElem(t, r, isa.ElemF, isa.FCfg{Mode: isa.FMDS, Consts: [4]uint8{2, 3, 1, 1}}.Encode())
	in := uint32(0xdb) | uint32(0x13)<<8 | uint32(0x53)<<16 | uint32(0x45)<<24
	want := uint32(0x8e) | uint32(0x4d)<<8 | uint32(0xa1)<<16 | uint32(0xbc)<<24
	if got := r.Eval(&Inputs{Port: [8]uint32{in}}); got != want {
		t.Errorf("F MDS: got %#x, want %#x", got, want)
	}
}

func TestLoadLUT8x8(t *testing.T) {
	r := New(false)
	// Load bytes 4..7 of bank 1 with 0x11, 0x22, 0x33, 0x44.
	data := uint64(0x11) | 0x22<<8 | 0x33<<16 | 0x44<<24
	if err := r.LoadLUT(isa.LUTAddr(false, 1, 1), data); err != nil {
		t.Fatal(err)
	}
	want := [4]uint8{0x11, 0x22, 0x33, 0x44}
	for i, w := range want {
		if got := r.LUT.S8[1][4+i]; got != w {
			t.Errorf("S8[1][%d] = %#x, want %#x", 4+i, got, w)
		}
	}
}

func TestLoadLUT4x4(t *testing.T) {
	r := New(false)
	// Load nibbles 8..15 of table 2 with 0..7.
	var data uint64
	for i := 0; i < 8; i++ {
		data |= uint64(i) << (4 * i)
	}
	if err := r.LoadLUT(isa.LUTAddr(true, 2, 1), data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got := r.LUT.S4[2][8+i]; got != uint8(i) {
			t.Errorf("S4[2][%d] = %d, want %d", 8+i, got, i)
		}
	}
}

func TestLoadLUTRejectsOutOfRangeGroup(t *testing.T) {
	r := New(false)
	if err := r.LoadLUT(isa.LUTAddr(true, 0, 16), 0); err == nil {
		t.Error("expected error for 4x4 group 16")
	}
}

func TestChainOrderAppliesE1BeforeB(t *testing.T) {
	// (x << 1) + 1: verifies E1 executes before B in the chain.
	r := New(false)
	applyElem(t, r, isa.ElemE1, isa.ECfg{Mode: isa.EShl, AmtSrc: isa.SrcImm, Amt: 1}.Encode())
	applyElem(t, r, isa.ElemB, isa.BCfg{Mode: isa.BAdd, Width: 2, Operand: isa.SrcImm, Imm: 1}.Encode())
	f := func(x uint32) bool {
		return r.Eval(&Inputs{Port: [8]uint32{x}}) == (x<<1)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRC6QuadraticOnOneRCEMUL(t *testing.T) {
	// t = (x*(2x+1)) <<< 5, the RC6 round quadratic, computed by a single
	// RCE MUL: E1 shl 1, A1 or imm 1 (2x is even, so OR 1 == +1),
	// D mul32 by INA, E3 rotl 5. The B adder sits after D in the chain,
	// which is why the +1 uses the Boolean element.
	r := New(true)
	applyElem(t, r, isa.ElemE1, isa.ECfg{Mode: isa.EShl, AmtSrc: isa.SrcImm, Amt: 1}.Encode())
	applyElem(t, r, isa.ElemA1, isa.ACfg{Op: isa.AOr, Operand: isa.SrcImm, Imm: 1}.Encode())
	applyElem(t, r, isa.ElemD, isa.DCfg{Mode: isa.DMul32, Operand: isa.SrcINA}.Encode())
	applyElem(t, r, isa.ElemE3, isa.ECfg{Mode: isa.ERotl, AmtSrc: isa.SrcImm, Amt: 5}.Encode())
	f := func(x uint32) bool {
		want := bits.RotL(x*(2*x+1), 5)
		return r.Eval(&Inputs{Port: [8]uint32{x}}) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResetRestoresIdentity(t *testing.T) {
	r := New(true)
	applyElem(t, r, isa.ElemE1, isa.ECfg{Mode: isa.ERotl, AmtSrc: isa.SrcImm, Amt: 7}.Encode())
	r.LUT.S8[0][0] = 0xff
	r.Reset()
	if got := r.Eval(&Inputs{Port: [8]uint32{0x1234}}); got != 0x1234 {
		t.Errorf("after Reset, Eval = %#x", got)
	}
	if r.LUT.S8[0][0] != 0 {
		t.Error("Reset did not clear LUTs")
	}
}

// chainElems lists a chain's elements in order.
func chainElems(ch *Chain) []isa.Elem {
	var out []isa.Elem
	for _, s := range ch.Steps() {
		out = append(out, s.Elem)
	}
	return out
}

func TestActiveElements(t *testing.T) {
	r := New(true)
	if got := chainElems(r.Chain()); len(got) != 0 {
		t.Errorf("identity config has active elements: %v", got)
	}
	applyElem(t, r, isa.ElemE1, isa.ECfg{Mode: isa.EShl, AmtSrc: isa.SrcImm, Amt: 1}.Encode())
	applyElem(t, r, isa.ElemD, isa.DCfg{Mode: isa.DSquare}.Encode())
	applyElem(t, r, isa.ElemReg, isa.RegCfg{Enabled: true}.Encode())
	if got, want := chainElems(r.Chain()), []isa.Elem{isa.ElemE1, isa.ElemD}; !slices.Equal(got, want) {
		t.Errorf("chain = %v, want %v", got, want)
	}
	if st := r.Chain().Steps()[1]; st.Op != OpSquare || st.Operand.From != NoOperand {
		t.Errorf("D square step = %+v, want OpSquare with no operand", st)
	}
	// Writes out of data-flow order insert in it; a bypass removes.
	applyElem(t, r, isa.ElemE3, isa.ECfg{Mode: isa.ERotl, AmtSrc: isa.SrcImm, Amt: 5}.Encode())
	applyElem(t, r, isa.ElemA1, isa.ACfg{Op: isa.AXor, Operand: isa.SrcINB}.Encode())
	applyElem(t, r, isa.ElemE1, isa.ECfg{Mode: isa.EBypass}.Encode())
	if got, want := chainElems(r.Chain()), []isa.Elem{isa.ElemA1, isa.ElemD, isa.ElemE3}; !slices.Equal(got, want) {
		t.Errorf("after reordered writes the chain = %v, want %v", got, want)
	}
	r.Reset()
	if n := len(r.Chain().Steps()); n != 0 || r.Chain().Insel != 0 {
		t.Errorf("after Reset the chain has %d steps and INSEL %d", n, r.Chain().Insel)
	}
}

func TestApplyElemOutIsNoOp(t *testing.T) {
	r := New(false)
	if err := r.ApplyElem(isa.ElemOut, 1); err != nil {
		t.Errorf("ElemOut should be accepted: %v", err)
	}
}

func TestApplyElemRejectsUnknown(t *testing.T) {
	r := New(false)
	if err := r.ApplyElem(isa.Elem(14), 0); err == nil {
		t.Error("expected error for unknown element")
	}
}

func TestDescribeMentionsActiveModes(t *testing.T) {
	for _, c := range []struct {
		d    isa.DCfg
		want string
	}{
		{isa.DCfg{Mode: isa.DSquare}, "D(SQR)"},
		{isa.DCfg{Mode: isa.DMul32, Operand: isa.SrcINA}, "D(MUL32 INA)"},
	} {
		r := New(true)
		applyElem(t, r, isa.ElemD, c.d.Encode())
		s := r.Describe()
		for _, sub := range []string{"RCE MUL", c.want, "OUT"} {
			if !strings.Contains(s, sub) {
				t.Errorf("Describe() = %q, missing %q", s, sub)
			}
		}
	}
}

func TestActiveElementsFullChain(t *testing.T) {
	r := New(true)
	applyElem(t, r, isa.ElemInsel, isa.InselCfg{Source: 1}.Encode())
	applyElem(t, r, isa.ElemE1, isa.ECfg{Mode: isa.EShl, AmtSrc: isa.SrcImm, Amt: 1}.Encode())
	applyElem(t, r, isa.ElemA1, isa.ACfg{Op: isa.AXor, Operand: isa.SrcINB}.Encode())
	applyElem(t, r, isa.ElemC, isa.CCfg{Mode: isa.CS8x8}.Encode())
	applyElem(t, r, isa.ElemE2, isa.ECfg{Mode: isa.ERotl, AmtSrc: isa.SrcImm, Amt: 2}.Encode())
	applyElem(t, r, isa.ElemD, isa.DCfg{Mode: isa.DMul32, Operand: isa.SrcINC}.Encode())
	applyElem(t, r, isa.ElemB, isa.BCfg{Mode: isa.BAdd, Width: 2, Operand: isa.SrcIND}.Encode())
	applyElem(t, r, isa.ElemF, isa.FCfg{Mode: isa.FLanes, Consts: [4]uint8{2, 2, 2, 2}}.Encode())
	applyElem(t, r, isa.ElemA2, isa.ACfg{Op: isa.AOr, Operand: isa.SrcINER}.Encode())
	applyElem(t, r, isa.ElemE3, isa.ECfg{Mode: isa.EShr, AmtSrc: isa.SrcImm, Amt: 3}.Encode())
	applyElem(t, r, isa.ElemReg, isa.RegCfg{Enabled: true}.Encode())
	ch := r.Chain()
	want := []Step{
		{Elem: isa.ElemE1, Op: OpShl, Operand: Operand{From: FromImm, Imm: 1}},
		{Elem: isa.ElemA1, Op: OpXor, Operand: Operand{From: FromPort, Port: 1}},
		{Elem: isa.ElemC, Op: OpS8},
		{Elem: isa.ElemE2, Op: OpRotl, Operand: Operand{From: FromImm, Imm: 2}},
		{Elem: isa.ElemD, Op: OpMul, Operand: Operand{From: FromPort, Port: 2}, Width: bits.W32},
		{Elem: isa.ElemB, Op: OpAdd, Operand: Operand{From: FromPort, Port: 3}, Width: bits.W32},
		{Elem: isa.ElemF, Op: OpGFLanes, Consts: [4]uint8{2, 2, 2, 2}},
		{Elem: isa.ElemA2, Op: OpOr, Operand: Operand{From: FromERAM}},
		{Elem: isa.ElemE3, Op: OpShr, Operand: Operand{From: FromImm, Imm: 3}},
	}
	if ch.Insel != 1 || !slices.Equal(ch.Steps(), want) {
		t.Fatalf("chain = INSEL %d %+v,\nwant INSEL 1 %+v", ch.Insel, ch.Steps(), want)
	}
	if !strings.Contains(r.Describe(), "IN[INB]") {
		t.Error("Describe missing INSEL source")
	}
}

// TestDecodeElem decodes single control words: an active element gives
// the step the chain holds for it, a bypassed one and the addresses
// outside the chain give none.
func TestDecodeElem(t *testing.T) {
	st, ok := DecodeElem(isa.ElemA2, isa.ACfg{Op: isa.AOr, Operand: isa.SrcINER}.Encode())
	if want := (Step{Elem: isa.ElemA2, Op: OpOr, Operand: Operand{From: FromERAM}}); !ok || st != want {
		t.Errorf("A2 OR INER = %+v, %v; want %+v", st, ok, want)
	}
	for _, c := range []struct {
		e    isa.Elem
		data uint64
	}{
		{isa.ElemB, isa.BCfg{Mode: isa.BBypass, Operand: isa.SrcINER}.Encode()},
		{isa.ElemInsel, isa.InselCfg{Source: 5}.Encode()},
		{isa.ElemReg, isa.RegCfg{Enabled: true}.Encode()},
		{isa.ElemER, isa.ERCfg{Bank: 1, Addr: 2}.Encode()},
	} {
		if st, ok := DecodeElem(c.e, c.data); ok {
			t.Errorf("DecodeElem(%s, %#x) = %+v, want no step", c.e, c.data, st)
		}
	}
}
