package bits

import (
	"testing"
	"testing/quick"
)

func TestWidthString(t *testing.T) {
	cases := map[Width]string{W8: "mod 2^8", W16: "mod 2^16", W32: "mod 2^32", Width(9): "mod ?"}
	for w, want := range cases {
		if got := w.String(); got != want {
			t.Errorf("Width(%d).String() = %q, want %q", w, got, want)
		}
	}
}

func TestRotL(t *testing.T) {
	cases := []struct {
		x    uint32
		n    uint
		want uint32
	}{
		{0x00000001, 1, 0x00000002},
		{0x80000000, 1, 0x00000001},
		{0x12345678, 0, 0x12345678},
		{0x12345678, 32, 0x12345678},
		{0x12345678, 4, 0x23456781},
		{0xdeadbeef, 16, 0xbeefdead},
	}
	for _, c := range cases {
		if got := RotL(c.x, c.n); got != c.want {
			t.Errorf("RotL(%#x, %d) = %#x, want %#x", c.x, c.n, got, c.want)
		}
	}
}

func TestRotRInverseOfRotL(t *testing.T) {
	f := func(x uint32, n uint8) bool {
		k := uint(n) % 64
		return RotR(RotL(x, k), k) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotLComposition(t *testing.T) {
	f := func(x uint32, a, b uint8) bool {
		return RotL(RotL(x, uint(a)), uint(b)) == RotL(x, uint(a)+uint(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShifts(t *testing.T) {
	if got := Shl(0xffffffff, 4); got != 0xfffffff0 {
		t.Errorf("Shl = %#x", got)
	}
	if got := Shr(0xffffffff, 4); got != 0x0fffffff {
		t.Errorf("Shr = %#x", got)
	}
	if Shl(1, 32) != 0 || Shl(1, 40) != 0 {
		t.Error("Shl should saturate to 0 for n >= 32")
	}
	if Shr(0x80000000, 32) != 0 || Shr(1, 100) != 0 {
		t.Error("Shr should saturate to 0 for n >= 32")
	}
}

func TestAddModW32(t *testing.T) {
	if got := AddMod(0xffffffff, 1, W32); got != 0 {
		t.Errorf("AddMod W32 wrap = %#x, want 0", got)
	}
	if got := AddMod(3, 4, W32); got != 7 {
		t.Errorf("AddMod = %d", got)
	}
}

func TestAddModW8LaneIsolation(t *testing.T) {
	// 0xff + 0x01 must wrap within the lane and not carry into the next.
	if got := AddMod(0x00ff00ff, 0x00010001, W8); got != 0x00000000 {
		t.Errorf("AddMod W8 = %#x, want 0", got)
	}
	if got := AddMod(0x01020304, 0x01010101, W8); got != 0x02030405 {
		t.Errorf("AddMod W8 = %#x", got)
	}
}

func TestAddModW16LaneIsolation(t *testing.T) {
	if got := AddMod(0xffff0001, 0x00010001, W16); got != 0x00000002 {
		t.Errorf("AddMod W16 = %#x", got)
	}
}

// addModRef is an independent lane-by-lane reference for AddMod/SubMod.
func addModRef(a, b uint32, w Width, sub bool) uint32 {
	lane := map[Width]uint{W8: 8, W16: 16, W32: 32}[w]
	mask := uint64(1)<<lane - 1
	var r uint32
	for sh := uint(0); sh < 32; sh += lane {
		la := uint64(a>>sh) & mask
		lb := uint64(b>>sh) & mask
		var lr uint64
		if sub {
			lr = (la - lb) & mask
		} else {
			lr = (la + lb) & mask
		}
		r |= uint32(lr) << sh
	}
	return r
}

func TestAddModMatchesReference(t *testing.T) {
	for _, w := range []Width{W8, W16, W32} {
		w := w
		f := func(a, b uint32) bool { return AddMod(a, b, w) == addModRef(a, b, w, false) }
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("width %v: %v", w, err)
		}
	}
}

func TestSubModMatchesReference(t *testing.T) {
	for _, w := range []Width{W8, W16, W32} {
		w := w
		f := func(a, b uint32) bool { return SubMod(a, b, w) == addModRef(a, b, w, true) }
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("width %v: %v", w, err)
		}
	}
}

func TestSubModInverseOfAddMod(t *testing.T) {
	for _, w := range []Width{W8, W16, W32} {
		w := w
		f := func(a, b uint32) bool { return SubMod(AddMod(a, b, w), b, w) == a }
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("width %v: %v", w, err)
		}
	}
}

func TestMulMod(t *testing.T) {
	if got := MulMod(0x10001, 0x10001, W16); got != 0x00010001 {
		t.Errorf("MulMod W16 = %#x", got)
	}
	if got := MulMod(0xffff, 0xffff, W16); got != 0x0001 {
		t.Errorf("MulMod W16 wrap = %#x, want 0x0001", got)
	}
	if got := MulMod(0x10000, 3, W32); got != 0x30000 {
		t.Errorf("MulMod W32 = %#x", got)
	}
}

func TestSquareMod32MatchesMulMod(t *testing.T) {
	f := func(a uint32) bool { return SquareMod32(a) == MulMod(a, a, W32) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGFMulKnownValues(t *testing.T) {
	// Classic FIPS-197 examples.
	cases := []struct{ a, b, want uint8 }{
		{0x57, 0x83, 0xc1},
		{0x57, 0x13, 0xfe},
		{0x02, 0x80, 0x1b},
		{0x01, 0xab, 0xab},
		{0x00, 0xff, 0x00},
	}
	for _, c := range cases {
		if got := GFMul(c.a, c.b); got != c.want {
			t.Errorf("GFMul(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

// gfMulBitSerial is the shift-and-add GF(2^8) multiply modulo 0x11b: the
// reference the table-driven GFMul is checked against.
func gfMulBitSerial(a, b uint8) uint8 {
	var p uint8
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

func TestGFMulMatchesBitSerialEverywhere(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := GFMul(uint8(a), uint8(b)), gfMulBitSerial(uint8(a), uint8(b)); got != want {
				t.Fatalf("GFMul(%#x, %#x) = %#x, bit-serial product %#x", a, b, got, want)
			}
		}
	}
}

func TestGFMulCommutative(t *testing.T) {
	f := func(a, b uint8) bool { return GFMul(a, b) == GFMul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGFMulDistributesOverXOR(t *testing.T) {
	f := func(a, b, c uint8) bool { return GFMul(a, b^c) == GFMul(a, b)^GFMul(a, c) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGFMulAssociative(t *testing.T) {
	f := func(a, b, c uint8) bool { return GFMul(GFMul(a, b), c) == GFMul(a, GFMul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGFInv(t *testing.T) {
	if GFInv(0) != 0 {
		t.Error("GFInv(0) must be 0")
	}
	for a := 1; a < 256; a++ {
		inv := GFInv(uint8(a))
		if got := GFMul(uint8(a), inv); got != 1 {
			t.Fatalf("GFMul(%#x, GFInv) = %#x, want 1", a, got)
		}
	}
}

func TestGFMulWord(t *testing.T) {
	// GFMulWord's c[0] multiplies the least significant byte (0x04 here).
	got := GFMulWord(0x01020304, [4]uint8{2, 2, 2, 2})
	want := uint32(GFMul(0x04, 2)) | uint32(GFMul(0x03, 2))<<8 |
		uint32(GFMul(0x02, 2))<<16 | uint32(GFMul(0x01, 2))<<24
	if got != want {
		t.Errorf("GFMulWord = %#x, want %#x", got, want)
	}
}

func TestGFMDSColumnMatchesMixColumnsExample(t *testing.T) {
	// FIPS-197 §5.1.3 example: column db 13 53 45 -> 8e 4d a1 bc
	// (bytes listed top-to-bottom; our byte 0 is the top/first byte).
	in := uint32(0xdb) | uint32(0x13)<<8 | uint32(0x53)<<16 | uint32(0x45)<<24
	want := uint32(0x8e) | uint32(0x4d)<<8 | uint32(0xa1)<<16 | uint32(0xbc)<<24
	if got := GFMDSColumn(in, [4]uint8{2, 3, 1, 1}); got != want {
		t.Errorf("GFMDSColumn = %#x, want %#x", got, want)
	}
}

func TestGFMDSColumnIdentity(t *testing.T) {
	f := func(x uint32) bool { return GFMDSColumn(x, [4]uint8{1, 0, 0, 0}) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGFMDSColumnLinear(t *testing.T) {
	c := [4]uint8{2, 3, 1, 1}
	f := func(x, y uint32) bool {
		return GFMDSColumn(x^y, c) == GFMDSColumn(x, c)^GFMDSColumn(y, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoadStore32(t *testing.T) {
	b := []byte{0x78, 0x56, 0x34, 0x12}
	if got := Load32LE(b); got != 0x12345678 {
		t.Errorf("Load32LE = %#x", got)
	}
	if got := Load32BE(b); got != 0x78563412 {
		t.Errorf("Load32BE = %#x", got)
	}
	var out [4]byte
	Store32LE(out[:], 0x12345678)
	if out != [4]byte{0x78, 0x56, 0x34, 0x12} {
		t.Errorf("Store32LE = %v", out)
	}
	Store32BE(out[:], 0x12345678)
	if out != [4]byte{0x12, 0x34, 0x56, 0x78} {
		t.Errorf("Store32BE = %v", out)
	}
}

func TestBlock128RoundTrip(t *testing.T) {
	f := func(raw [16]byte) bool {
		blk := LoadBlock128(raw[:])
		var out [16]byte
		blk.StoreBlock128(out[:])
		return out == raw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlock128ByteAccess(t *testing.T) {
	var raw [16]byte
	for i := range raw {
		raw[i] = byte(i * 7)
	}
	blk := LoadBlock128(raw[:])
	for i := 0; i < 16; i++ {
		if got := blk.Byte(i); got != raw[i] {
			t.Errorf("Byte(%d) = %#x, want %#x", i, got, raw[i])
		}
	}
}

func TestBlock128SetByte(t *testing.T) {
	f := func(raw [16]byte, idx uint8, v uint8) bool {
		i := int(idx) % 16
		blk := LoadBlock128(raw[:]).SetByte(i, v)
		for j := 0; j < 16; j++ {
			want := raw[j]
			if j == i {
				want = v
			}
			if blk.Byte(j) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlock128XORSelfInverse(t *testing.T) {
	f := func(a, b [4]uint32) bool {
		x, y := Block128(a), Block128(b)
		return x.XOR(y).XOR(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlock128Add32(t *testing.T) {
	x := Block128{0xffffffff, 1, 2, 3}
	y := Block128{1, 1, 1, 1}
	if got := x.Add32(y); got != (Block128{0, 2, 3, 4}) {
		t.Errorf("Add32 = %v", got)
	}
}
