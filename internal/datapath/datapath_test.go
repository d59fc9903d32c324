package datapath

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cobra/internal/bits"
	"cobra/internal/isa"
)

func newArray(t *testing.T) *Array {
	t.Helper()
	a, err := New(BaseGeometry())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		rows int
		ok   bool
	}{
		{4, true}, {2, true}, {8, true}, {40, true}, {128, true}, {256, true},
		{0, false}, {1, false}, {3, false}, {5, false}, {258, false},
	}
	for _, c := range cases {
		err := (Geometry{Rows: c.rows}).Validate()
		if (err == nil) != c.ok {
			t.Errorf("rows=%d: err=%v, want ok=%v", c.rows, err, c.ok)
		}
	}
}

func TestGeometryShufflers(t *testing.T) {
	if got := (Geometry{Rows: 4}).Shufflers(); got != 2 {
		t.Errorf("base geometry shufflers = %d, want 2", got)
	}
	if got := (Geometry{Rows: 40}).Shufflers(); got != 20 {
		t.Errorf("40-row shufflers = %d, want 20", got)
	}
}

func TestMulColumns(t *testing.T) {
	// All RCEs in columns 1 and 3 have the multiplier (§3.1).
	a := newArray(t)
	for r := 0; r < 4; r++ {
		for c := 0; c < Cols; c++ {
			want := c == 1 || c == 3
			if got := a.RCE(r, c).HasMul; got != want {
				t.Errorf("RCE(%d,%d).HasMul = %v, want %v", r, c, got, want)
			}
		}
	}
}

func TestIdentityPassThrough(t *testing.T) {
	a := newArray(t)
	in := bits.Block128{1, 2, 3, 4}
	res := a.Tick(TickInput{External: in, HaveExternal: true})
	if !res.Advanced || !res.ConsumedExternal {
		t.Fatalf("tick did not advance: %+v", res)
	}
	if res.Output != in {
		t.Errorf("identity output = %v, want %v", res.Output, in)
	}
}

func TestExternalModeStallsWithoutInput(t *testing.T) {
	a := newArray(t)
	res := a.Tick(TickInput{})
	if res.Advanced {
		t.Error("tick advanced without external input")
	}
}

func TestGlobalDisableStalls(t *testing.T) {
	a := newArray(t)
	if err := a.SetOutEnable(isa.SliceAll(), false); err != nil {
		t.Fatal(err)
	}
	res := a.Tick(TickInput{External: bits.Block128{1}, HaveExternal: true})
	if res.Advanced {
		t.Error("tick advanced while globally disabled")
	}
	if err := a.SetOutEnable(isa.SliceAll(), true); err != nil {
		t.Fatal(err)
	}
	if res := a.Tick(TickInput{External: bits.Block128{1}, HaveExternal: true}); !res.Advanced {
		t.Error("tick did not advance after re-enable")
	}
}

func TestSecondaryMapping(t *testing.T) {
	// §3.1: INA is the column's own block, INB/INC/IND the remaining
	// blocks in ascending numerical order; PA..PD are the bypass bus's
	// blocks 0..3, after the current row's four.
	want := map[int][8]int{
		0: {0, 1, 2, 3, 4, 5, 6, 7},
		1: {1, 0, 2, 3, 4, 5, 6, 7},
		2: {2, 0, 1, 3, 4, 5, 6, 7},
		3: {3, 0, 1, 2, 4, 5, 6, 7},
	}
	cur, prev := [Cols]int{10, 11, 12, 13}, [Cols]int{14, 15, 16, 17}
	for c, w := range want {
		for p := range w {
			if got := Tap(c, uint8(p)); got != w[p] {
				t.Errorf("Tap(%d, %s) = %d, want %d", c, isa.InselNames[p], got, w[p])
			}
			if got := PortValue(c, uint8(p), &cur, &prev); got != 10+w[p] {
				t.Errorf("PortValue(%d, %s) = %d, want %d", c, isa.InselNames[p], got, 10+w[p])
			}
		}
	}
}

func TestSecondaryInputsReachElements(t *testing.T) {
	// Column 0 XORs with INB (block 1), INC (block 2), IND (block 3) in
	// turn; verify each sees the right block.
	for k, src := range []isa.Src{isa.SrcINB, isa.SrcINC, isa.SrcIND} {
		a := newArray(t)
		cfg := isa.ACfg{Op: isa.AXor, Operand: src}
		if err := a.ApplyElem(isa.SliceAt(0, 0), isa.ElemA1, cfg.Encode()); err != nil {
			t.Fatal(err)
		}
		in := bits.Block128{0, 10, 20, 30}
		res := a.Tick(TickInput{External: in, HaveExternal: true})
		want := in[k+1]
		if res.Output[0] != want {
			t.Errorf("src %v: col0 out = %d, want %d", src, res.Output[0], want)
		}
	}
}

func TestERAMReadReachesINER(t *testing.T) {
	a := newArray(t)
	a.WriteERAM(2, 1, 77, 0xcafebabe)
	if err := a.ApplyElem(isa.SliceAt(0, 2), isa.ElemER,
		isa.ERCfg{Bank: 1, Addr: 77}.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := a.ApplyElem(isa.SliceAt(0, 2), isa.ElemA1,
		isa.ACfg{Op: isa.AXor, Operand: isa.SrcINER}.Encode()); err != nil {
		t.Fatal(err)
	}
	res := a.Tick(TickInput{External: bits.Block128{}, HaveExternal: true})
	if res.Output[2] != 0xcafebabe {
		t.Errorf("INER did not reach element: out = %#x", res.Output[2])
	}
}

func TestFeedbackMode(t *testing.T) {
	a := newArray(t)
	// Column 0 increments by 1 each pass.
	if err := a.ApplyElem(isa.SliceAt(0, 0), isa.ElemB,
		isa.BCfg{Mode: isa.BAdd, Width: 2, Operand: isa.SrcImm, Imm: 1}.Encode()); err != nil {
		t.Fatal(err)
	}
	// Seed with an external block, then loop.
	a.Tick(TickInput{External: bits.Block128{100, 0, 0, 0}, HaveExternal: true})
	a.SetInMux(isa.InMuxCfg{Mode: isa.InFeedback})
	for i := 0; i < 5; i++ {
		res := a.Tick(TickInput{})
		if !res.Advanced {
			t.Fatal("feedback tick stalled")
		}
		if want := uint32(102 + i); res.Output[0] != want {
			t.Errorf("pass %d: out = %d, want %d", i, res.Output[0], want)
		}
	}
}

func TestByteShufflerPosition(t *testing.T) {
	// A shuffler sits before row 1: swap bytes 0 and 4 (block0 lsb with
	// block1 lsb) and check it happened between row 0 and row 1.
	a := newArray(t)
	perm := isa.ShufCfg{Perm: [8]uint8{4, 1, 2, 3, 0, 5, 6, 7}}
	if err := a.SetShuffler(0, perm); err != nil {
		t.Fatal(err)
	}
	in := bits.Block128{0x000000aa, 0x000000bb, 0, 0}
	res := a.Tick(TickInput{External: in, HaveExternal: true})
	if res.Output[0] != 0x000000bb || res.Output[1] != 0x000000aa {
		t.Errorf("shuffler swap failed: %v", res.Output)
	}
}

func TestShufflerIndexRange(t *testing.T) {
	a := newArray(t)
	if err := a.SetShuffler(2, isa.ShufCfg{}); err == nil {
		t.Error("expected error for shuffler index 2 on base geometry")
	}
	if err := a.SetShuffler(-1, isa.ShufCfg{}); err == nil {
		t.Error("expected error for negative shuffler index")
	}
}

func TestShufflerHighHalf(t *testing.T) {
	a := newArray(t)
	// Identity low half; high half reversed within itself.
	cfg := isa.ShufCfg{High: true, Perm: [8]uint8{15, 14, 13, 12, 11, 10, 9, 8}}
	if err := a.SetShuffler(0, cfg); err != nil {
		t.Fatal(err)
	}
	got := a.Shuffler(0)
	for i := 0; i < 8; i++ {
		if got[i] != uint8(i) {
			t.Errorf("low half disturbed at %d: %d", i, got[i])
		}
		if got[8+i] != uint8(15-i) {
			t.Errorf("high half at %d: %d, want %d", 8+i, got[8+i], 15-i)
		}
	}
}

func TestWhiteningXorAndAdd(t *testing.T) {
	a := newArray(t)
	a.SetWhitening(isa.WhiteCfg{Col: 0, Mode: isa.WhiteXor, Key: 0xff00ff00})
	a.SetWhitening(isa.WhiteCfg{Col: 1, Mode: isa.WhiteAdd, Key: 1})
	in := bits.Block128{0x0f0f0f0f, 0xffffffff, 5, 6}
	res := a.Tick(TickInput{External: in, HaveExternal: true})
	if res.Output[0] != 0x0f0f0f0f^0xff00ff00 {
		t.Errorf("whitening xor: %#x", res.Output[0])
	}
	if res.Output[1] != 0 {
		t.Errorf("whitening add wrap: %#x", res.Output[1])
	}
	if res.Output[2] != 5 || res.Output[3] != 6 {
		t.Error("whitening off columns disturbed")
	}
}

func TestRegisteredRCEDelaysOneCycle(t *testing.T) {
	a := newArray(t)
	if err := a.ApplyElem(isa.SliceAt(0, 0), isa.ElemReg,
		isa.RegCfg{Enabled: true}.Encode()); err != nil {
		t.Fatal(err)
	}
	r1 := a.Tick(TickInput{External: bits.Block128{111, 0, 0, 0}, HaveExternal: true})
	if r1.Output[0] != 0 {
		t.Errorf("cycle 1: registered value visible too early: %d", r1.Output[0])
	}
	r2 := a.Tick(TickInput{External: bits.Block128{222, 0, 0, 0}, HaveExternal: true})
	if r2.Output[0] != 111 {
		t.Errorf("cycle 2: out = %d, want 111", r2.Output[0])
	}
}

func TestPipelineFourStages(t *testing.T) {
	// Register every row in column 0: a 4-stage pipeline. Block i must
	// appear at the output on cycle i+4 (0-indexed input on cycle i).
	a := newArray(t)
	if err := a.ApplyElem(isa.SliceCol(0), isa.ElemReg,
		isa.RegCfg{Enabled: true}.Encode()); err != nil {
		t.Fatal(err)
	}
	var outs []uint32
	for i := 0; i < 10; i++ {
		res := a.Tick(TickInput{External: bits.Block128{uint32(1000 + i)}, HaveExternal: true})
		outs = append(outs, res.Output[0])
	}
	// After the 4-cycle fill, outputs follow inputs with latency 4.
	for i := 4; i < 10; i++ {
		if want := uint32(1000 + i - 4); outs[i] != want {
			t.Errorf("cycle %d: out = %d, want %d", i, outs[i], want)
		}
	}
}

// TestTickAllocatesNothing runs advancing cycles on configured arrays whose
// every row is registered (one row held): the register latch and every
// row's evaluation happen in place.
func TestTickAllocatesNothing(t *testing.T) {
	for _, rows := range []int{4, 20, 40} {
		a, err := New(Geometry{Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []struct {
			e    isa.Elem
			data uint64
		}{
			{isa.ElemE1, isa.ECfg{Mode: isa.ERotl, AmtSrc: isa.SrcINB}.Encode()},
			{isa.ElemA2, isa.ACfg{Op: isa.AXor, Operand: isa.SrcINER}.Encode()},
			{isa.ElemReg, isa.RegCfg{Enabled: true}.Encode()},
		} {
			if err := a.ApplyElem(isa.SliceAll(), cfg.e, cfg.data); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.SetOutEnable(isa.SliceAt(1, 2), false); err != nil {
			t.Fatal(err)
		}
		a.SetWhitening(isa.WhiteCfg{Col: 1, Mode: isa.WhiteAdd, Key: 7})
		in := TickInput{External: bits.Block128{1, 2, 3, 4}, HaveExternal: true}
		allocs := testing.AllocsPerRun(20, func() {
			if !a.Tick(in).Advanced {
				t.Fatal("tick stalled")
			}
		})
		if allocs != 0 {
			t.Errorf("%d rows: an advancing Tick allocates %.1f times, want 0", rows, allocs)
		}
	}
}

func TestPerRCEHoldFreezesRegister(t *testing.T) {
	a := newArray(t)
	if err := a.ApplyElem(isa.SliceAt(0, 0), isa.ElemReg,
		isa.RegCfg{Enabled: true}.Encode()); err != nil {
		t.Fatal(err)
	}
	a.Tick(TickInput{External: bits.Block128{5}, HaveExternal: true})
	// Freeze the RCE: its register must keep presenting 5.
	if err := a.SetOutEnable(isa.SliceAt(0, 0), false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res := a.Tick(TickInput{External: bits.Block128{uint32(100 + i)}, HaveExternal: true})
		if res.Output[0] != 5 {
			t.Errorf("frozen register leaked: out = %d", res.Output[0])
		}
	}
}

func TestCaptureWritesOutputs(t *testing.T) {
	a := newArray(t)
	a.SetCapture(0, isa.CaptureCfg{Enabled: true, Bank: 3, Addr: 10})
	for i := 0; i < 4; i++ {
		a.Tick(TickInput{External: bits.Block128{uint32(i) * 7}, HaveExternal: true})
	}
	for i := 0; i < 4; i++ {
		if got := a.ReadERAM(0, 3, 10+i); got != uint32(i)*7 {
			t.Errorf("capture[%d] = %d, want %d", i, got, uint32(i)*7)
		}
	}
}

func TestERAMPlayback(t *testing.T) {
	a := newArray(t)
	for i := 0; i < 3; i++ {
		for c := 0; c < Cols; c++ {
			a.WriteERAM(c, 2, 20+i, uint32(c*100+i))
		}
	}
	a.SetInMux(isa.InMuxCfg{Mode: isa.InERAM, Bank: 2, Addr: 20})
	for i := 0; i < 3; i++ {
		res := a.Tick(TickInput{})
		for c := 0; c < Cols; c++ {
			if res.Output[c] != uint32(c*100+i) {
				t.Errorf("playback cycle %d col %d = %d", i, c, res.Output[c])
			}
		}
	}
}

func TestApplyElemScopeBroadcast(t *testing.T) {
	a := newArray(t)
	cfg := isa.ECfg{Mode: isa.ERotl, AmtSrc: isa.SrcImm, Amt: 1}
	if err := a.ApplyElem(isa.SliceAll(), isa.ElemE1, cfg.Encode()); err != nil {
		t.Fatal(err)
	}
	// Four rows each rotate by 1: total rotate by 4.
	in := bits.Block128{0x80000000, 1, 2, 3}
	res := a.Tick(TickInput{External: in, HaveExternal: true})
	if res.Output[0] != bits.RotL(0x80000000, 4) {
		t.Errorf("broadcast rot: %#x", res.Output[0])
	}
}

func TestApplyElemDBroadcastSkipsPlainColumns(t *testing.T) {
	a := newArray(t)
	cfg := isa.DCfg{Mode: isa.DSquare}
	if err := a.ApplyElem(isa.SliceRow(0), isa.ElemD, cfg.Encode()); err != nil {
		t.Errorf("row-scope D config should skip plain RCEs: %v", err)
	}
	// Direct single-RCE addressing still errors.
	if err := a.ApplyElem(isa.SliceAt(0, 0), isa.ElemD, cfg.Encode()); err == nil {
		t.Error("expected error configuring D at plain RCE")
	}
}

func TestApplyElemRowOutOfRange(t *testing.T) {
	a := newArray(t)
	if err := a.ApplyElem(isa.SliceAt(4, 0), isa.ElemE1, 0); err == nil {
		t.Error("expected error for row 4 on base geometry")
	}
	if err := a.ApplyElem(isa.SliceRow(9), isa.ElemE1, 0); err == nil {
		t.Error("expected error for row-scope out of range")
	}
}

func TestResetRestoresPowerUpState(t *testing.T) {
	a := newArray(t)
	a.SetWhitening(isa.WhiteCfg{Col: 0, Mode: isa.WhiteXor, Key: 9})
	a.SetInMux(isa.InMuxCfg{Mode: isa.InFeedback})
	a.SetCapture(1, isa.CaptureCfg{Enabled: true})
	if err := a.ApplyElem(isa.SliceAll(), isa.ElemE1,
		isa.ECfg{Mode: isa.ERotl, AmtSrc: isa.SrcImm, Amt: 3}.Encode()); err != nil {
		t.Fatal(err)
	}
	a.WriteERAM(0, 0, 0, 42)
	a.Reset()
	in := bits.Block128{7, 8, 9, 10}
	res := a.Tick(TickInput{External: in, HaveExternal: true})
	if res.Output != in {
		t.Errorf("after Reset, output = %v, want %v", res.Output, in)
	}
	if a.ReadERAM(0, 0, 0) != 42 {
		t.Error("Reset must preserve eRAM contents")
	}
}

func TestLoadLUTBroadcast(t *testing.T) {
	a := newArray(t)
	if err := a.LoadLUT(isa.SliceCol(1), isa.LUTAddr(false, 0, 0), 0x04030201); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if got := a.RCE(r, 1).LUT.S8[0][2]; got != 3 {
			t.Errorf("row %d LUT byte = %d, want 3", r, got)
		}
	}
}

func TestExpandedGeometry(t *testing.T) {
	a, err := New(Geometry{Rows: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := isa.ECfg{Mode: isa.ERotl, AmtSrc: isa.SrcImm, Amt: 1}
	if err := a.ApplyElem(isa.SliceAll(), isa.ElemE1, cfg.Encode()); err != nil {
		t.Fatal(err)
	}
	in := bits.Block128{0x00000001, 0, 0, 0}
	res := a.Tick(TickInput{External: in, HaveExternal: true})
	if res.Output[0] != 1<<8 {
		t.Errorf("8-row rotate chain: %#x, want %#x", res.Output[0], 1<<8)
	}
}

func TestDescribeRendersTopology(t *testing.T) {
	a := newArray(t)
	d := a.Describe()
	for _, sub := range []string{"4 rows", "byte shuffler 0", "byte shuffler 1",
		"RCE MUL", "whitening", "eRAMs"} {
		if !strings.Contains(d, sub) {
			t.Errorf("Describe missing %q:\n%s", sub, d)
		}
	}
}

func TestShufflerPermutationProperty(t *testing.T) {
	// Any permutation applied before row 1 must be a bijection on bytes.
	a := newArray(t)
	f := func(seed [16]uint8, raw [16]byte) bool {
		var perm [16]uint8
		used := [16]bool{}
		// Build a permutation from the seed (Fisher-Yates-ish selection).
		for i := 0; i < 16; i++ {
			j := int(seed[i]) % 16
			for used[j] {
				j = (j + 1) % 16
			}
			perm[i] = uint8(j)
			used[j] = true
		}
		a.Reset()
		var low, high isa.ShufCfg
		copy(low.Perm[:], perm[:8])
		high.High = true
		copy(high.Perm[:], perm[8:])
		if err := a.SetShuffler(0, low); err != nil {
			return false
		}
		if err := a.SetShuffler(0, high); err != nil {
			return false
		}
		in := bits.LoadBlock128(raw[:])
		res := a.Tick(TickInput{External: in, HaveExternal: true})
		for dst := 0; dst < 16; dst++ {
			if res.Output.Byte(dst) != in.Byte(int(perm[dst])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInputWhitening(t *testing.T) {
	a := newArray(t)
	a.SetWhitening(isa.WhiteCfg{Col: 0, Mode: isa.WhiteAdd, In: true, Key: 5})
	a.SetWhitening(isa.WhiteCfg{Col: 1, Mode: isa.WhiteXor, In: true, Key: 0xff})
	in := bits.Block128{10, 0x0f, 7, 8}
	res := a.Tick(TickInput{External: in, HaveExternal: true})
	if res.Output[0] != 15 {
		t.Errorf("input ADD whitening: %d, want 15", res.Output[0])
	}
	if res.Output[1] != 0xf0 {
		t.Errorf("input XOR whitening: %#x, want 0xf0", res.Output[1])
	}
	if res.Output[2] != 7 || res.Output[3] != 8 {
		t.Error("unconfigured columns disturbed")
	}
}

func TestInputAndOutputWhiteningIndependent(t *testing.T) {
	// The position bit selects exactly one placement per column register.
	a := newArray(t)
	a.SetWhitening(isa.WhiteCfg{Col: 0, Mode: isa.WhiteAdd, In: true, Key: 1})
	a.SetWhitening(isa.WhiteCfg{Col: 1, Mode: isa.WhiteAdd, In: false, Key: 1})
	in := bits.Block128{100, 100, 0, 0}
	res := a.Tick(TickInput{External: in, HaveExternal: true})
	if res.Output[0] != 101 || res.Output[1] != 101 {
		t.Errorf("whitening positions: %v", res.Output[:2])
	}
}

func TestInputWhiteningAppliesToFeedbackToo(t *testing.T) {
	// The whitening sits on the input path after the multiplexor, so
	// feedback passes are whitened as well — microcode must disable it
	// after the consuming pass (which the program builders do).
	a := newArray(t)
	a.SetWhitening(isa.WhiteCfg{Col: 0, Mode: isa.WhiteAdd, In: true, Key: 1})
	a.Tick(TickInput{External: bits.Block128{10}, HaveExternal: true})
	a.SetInMux(isa.InMuxCfg{Mode: isa.InFeedback})
	res := a.Tick(TickInput{})
	if res.Output[0] != 12 {
		t.Errorf("feedback whitening: %d, want 12", res.Output[0])
	}
}

// TestCopyFromCopiesEveryField sets every kind of array state on src — an
// element configuration and its chain, a LUT group, a shuffler, the input
// multiplexor, whitening, a capture port, eRAM words, registers, a hold,
// the global enable, the playback address and the feedback and output
// vectors — and copies it onto an array holding other state. The two must
// be equal field for field, the copy must share nothing with src, and it
// must allocate nothing. Another geometry and an armed uninit sentinel are
// refused.
func TestCopyFromCopiesEveryField(t *testing.T) {
	src, dst := newArray(t), newArray(t)
	dst.WriteERAM(2, 1, 9, 0xdead)
	if err := dst.SetOutEnable(isa.SliceAt(1, 2), false); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		src.ApplyElem(isa.SliceRow(0), isa.ElemReg, isa.RegCfg{Enabled: true}.Encode()),
		src.ApplyElem(isa.SliceAt(2, 3), isa.ElemA1, isa.ACfg{Op: isa.AXor, Operand: isa.SrcImm, Imm: 0x1234}.Encode()),
		src.LoadLUT(isa.SliceAt(3, 0), isa.LUTAddr(false, 2, 5), 0x01020304),
		src.SetShuffler(1, isa.ShufCfg{High: true, Perm: [8]uint8{7, 6, 5, 4, 3, 2, 1, 0}}),
		src.SetOutEnable(isa.SliceAt(0, 1), false),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	src.SetWhitening(isa.WhiteCfg{Col: 1, Mode: isa.WhiteXor, In: true, Key: 0xabc})
	src.SetCapture(3, isa.CaptureCfg{Enabled: true, Bank: 2, Addr: 40})
	src.WriteERAM(0, 3, 200, 0x55aa)
	src.SetInMux(isa.InMuxCfg{Mode: isa.InERAM, Bank: 3, Addr: 199})
	for i := 0; i < 3; i++ {
		src.Tick(TickInput{})
	}
	if err := src.SetOutEnable(isa.SliceAll(), false); err != nil {
		t.Fatal(err)
	}

	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst, src) {
		t.Fatal("the copy differs from its source")
	}
	if err := dst.ApplyElem(isa.SliceAt(2, 3), isa.ElemA1, 0); err != nil {
		t.Fatal(err)
	}
	if src.RCE(2, 3).Cfg.A1.Imm != 0x1234 {
		t.Error("configuring the copy reconfigured its source")
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = dst.CopyFrom(src) }); allocs != 0 {
		t.Errorf("CopyFrom allocates %.1f times, want 0", allocs)
	}

	other, err := New(Geometry{Rows: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.CopyFrom(src); !errors.Is(err, ErrGeometryMismatch) {
		t.Errorf("copy onto 8 rows from 4: %v, want ErrGeometryMismatch", err)
	}
	armed := newArray(t)
	armed.TrackUninit()
	if err := armed.CopyFrom(src); !errors.Is(err, ErrUninitArmed) {
		t.Errorf("copy onto an armed sentinel: %v, want ErrUninitArmed", err)
	}
}
