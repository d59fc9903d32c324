// Package bits provides the word-level arithmetic substrate used throughout
// the COBRA simulator: rotations, modular addition/subtraction and
// multiplication at the widths the RCE elements support (2^8, 2^16, 2^32),
// GF(2^8) arithmetic for the F element, and byte packing helpers for the
// 128-bit data stream.
//
// Everything here is branch-free where practical; these functions sit on the
// innermost simulation loop (one call per enabled element per datapath
// cycle) and on the reference-cipher hot paths used as the software
// baseline.
package bits

import "math/bits"

// Width selects the modulus for the B and D elements. The COBRA B element
// supports addition/subtraction mod 2^8, 2^16 and 2^32 (applied lane-wise
// for the narrow widths); the D element supports multiplication mod 2^16
// and 2^32 and squaring mod 2^32.
type Width uint8

const (
	// W8 operates on four independent 8-bit lanes of the 32-bit word.
	W8 Width = iota
	// W16 operates on two independent 16-bit lanes of the 32-bit word.
	W16
	// W32 operates on the full 32-bit word.
	W32
)

// String returns the conventional name of the width ("mod 2^8", ...).
func (w Width) String() string {
	switch w {
	case W8:
		return "mod 2^8"
	case W16:
		return "mod 2^16"
	case W32:
		return "mod 2^32"
	}
	return "mod ?"
}

// RotL rotates x left by n (mod 32).
func RotL(x uint32, n uint) uint32 { return bits.RotateLeft32(x, int(n&31)) }

// RotR rotates x right by n (mod 32).
func RotR(x uint32, n uint) uint32 { return bits.RotateLeft32(x, -int(n&31)) }

// Shl shifts x left by n; n ≥ 32 yields 0 (matching a hardware barrel
// shifter with a saturating count decoder).
func Shl(x uint32, n uint) uint32 {
	if n >= 32 {
		return 0
	}
	return x << n
}

// Shr shifts x logically right by n; n ≥ 32 yields 0.
func Shr(x uint32, n uint) uint32 {
	if n >= 32 {
		return 0
	}
	return x >> n
}

// AddMod adds a and b lane-wise at width w. For W8 the four byte lanes wrap
// independently; for W16 the two half-word lanes wrap independently; for W32
// the full word wraps.
func AddMod(a, b uint32, w Width) uint32 {
	switch w {
	case W8:
		// SWAR addition: suppress carries across lane boundaries.
		const high = 0x80808080
		return ((a &^ high) + (b &^ high)) ^ ((a ^ b) & high)
	case W16:
		const high = 0x80008000
		return ((a &^ high) + (b &^ high)) ^ ((a ^ b) & high)
	default:
		return a + b
	}
}

// SubMod subtracts b from a lane-wise at width w.
func SubMod(a, b uint32, w Width) uint32 {
	switch w {
	case W8:
		var r uint32
		for i := 0; i < 4; i++ {
			sh := uint(8 * i)
			la := (a >> sh) & 0xff
			lb := (b >> sh) & 0xff
			r |= ((la - lb) & 0xff) << sh
		}
		return r
	case W16:
		lo := (a - b) & 0xffff
		hi := ((a >> 16) - (b >> 16)) & 0xffff
		return hi<<16 | lo
	default:
		return a - b
	}
}

// MulMod multiplies a and b at width w. W8 is not a supported multiplier
// width on the D element; it behaves as W16 here only to keep the function
// total — the ISA decoder never produces it.
func MulMod(a, b uint32, w Width) uint32 {
	switch w {
	case W16, W8:
		lo := (a & 0xffff) * (b & 0xffff) & 0xffff
		hi := ((a >> 16) * (b >> 16)) & 0xffff
		return hi<<16 | lo
	default:
		return a * b
	}
}

// SquareMod32 squares a mod 2^32 (the D element's dedicated squaring mode).
func SquareMod32(a uint32) uint32 { return a * a }

// GFMul multiplies a and b in GF(2^8) with the Rijndael reduction
// polynomial x^8 + x^4 + x^3 + x + 1 (0x11b). This is the primitive the F
// element's fixed-constant multipliers are built from. The interpreter
// calls it for every F-element byte lane on every tick, so it reads the
// log/antilog tables below instead of looping over the bits of b.
func GFMul(a, b uint8) uint8 {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfExp and gfLog are the antilog and log tables of GF(2^8) for the
// generator 3. gfExp holds the 255-element cycle twice, so the sum of two
// logs indexes it without a reduction mod 255.
var gfExp, gfLog = gfTables()

func gfTables() (exp [510]uint8, log [256]uint8) {
	x := uint8(1)
	for i := 0; i < 255; i++ {
		exp[i], exp[i+255] = x, x
		log[x] = uint8(i)
		// x *= 3, that is x ^ 2x, with 2x reduced by 0x11b.
		x2 := x << 1
		if x&0x80 != 0 {
			x2 ^= 0x1b
		}
		x ^= x2
	}
	return exp, log
}

// GFMulWord applies GFMul lane-wise: each byte of x is multiplied by the
// corresponding byte of the constant vector c (c[0] multiplies the least
// significant byte).
func GFMulWord(x uint32, c [4]uint8) uint32 {
	var r uint32
	for i := 0; i < 4; i++ {
		sh := uint(8 * i)
		r |= uint32(GFMul(uint8(x>>sh), c[i])) << sh
	}
	return r
}

// GFMDSColumn multiplies the 4-byte column x (least significant byte =
// row 0) by the circulant MDS matrix whose first row is c. With
// c = {2,3,1,1} this is exactly the Rijndael MixColumns transform of one
// column. This is the F element's MDS mode.
func GFMDSColumn(x uint32, c [4]uint8) uint32 {
	var b [4]uint8
	for i := range b {
		b[i] = uint8(x >> (8 * uint(i)))
	}
	var r uint32
	for row := 0; row < 4; row++ {
		var acc uint8
		for col := 0; col < 4; col++ {
			acc ^= GFMul(b[col], c[(col-row+4)%4])
		}
		r |= uint32(acc) << (8 * uint(row))
	}
	return r
}

// GFInv returns the multiplicative inverse of a in GF(2^8) (0 maps to 0).
// Used to construct the Rijndael S-box from first principles in tests.
func GFInv(a uint8) uint8 {
	if a == 0 {
		return 0
	}
	// a^(2^8-2) by square-and-multiply.
	r := uint8(1)
	x := a
	for e := 254; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = GFMul(r, x)
		}
		x = GFMul(x, x)
	}
	return r
}

// Load32LE assembles a little-endian 32-bit word from b[0:4].
func Load32LE(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Store32LE writes x into b[0:4] little-endian.
func Store32LE(b []byte, x uint32) {
	_ = b[3]
	b[0] = byte(x)
	b[1] = byte(x >> 8)
	b[2] = byte(x >> 16)
	b[3] = byte(x >> 24)
}

// Load32BE assembles a big-endian 32-bit word from b[0:4].
func Load32BE(b []byte) uint32 {
	_ = b[3]
	return uint32(b[3]) | uint32(b[2])<<8 | uint32(b[1])<<16 | uint32(b[0])<<24
}

// Store32BE writes x into b[0:4] big-endian.
func Store32BE(b []byte, x uint32) {
	_ = b[3]
	b[3] = byte(x)
	b[2] = byte(x >> 8)
	b[1] = byte(x >> 16)
	b[0] = byte(x >> 24)
}

// Block128 is the 128-bit COBRA data stream, partitioned into four 32-bit
// blocks. Block 0 holds bits 31..0 (the primary input of column 0), block 1
// bits 63..32, and so on, exactly as §3.1 of the paper defines.
type Block128 [4]uint32

// LoadBlock128 packs 16 bytes (little-endian within each 32-bit block,
// block 0 first) into a Block128.
func LoadBlock128(b []byte) Block128 {
	_ = b[15]
	return Block128{
		Load32LE(b[0:4]),
		Load32LE(b[4:8]),
		Load32LE(b[8:12]),
		Load32LE(b[12:16]),
	}
}

// StoreBlock128 unpacks the block into 16 bytes.
func (x Block128) StoreBlock128(b []byte) {
	_ = b[15]
	Store32LE(b[0:4], x[0])
	Store32LE(b[4:8], x[1])
	Store32LE(b[8:12], x[2])
	Store32LE(b[12:16], x[3])
}

// Byte returns byte i (0..15) of the 128-bit stream, byte 0 being the least
// significant byte of block 0. The byte shufflers permute at this
// granularity.
func (x Block128) Byte(i int) uint8 {
	return uint8(x[i>>2] >> (8 * uint(i&3)))
}

// SetByte returns a copy of x with byte i replaced by v.
func (x Block128) SetByte(i int, v uint8) Block128 {
	sh := 8 * uint(i&3)
	x[i>>2] = x[i>>2]&^(0xff<<sh) | uint32(v)<<sh
	return x
}

// XOR returns the bit-wise XOR of two 128-bit blocks (whitening support).
func (x Block128) XOR(y Block128) Block128 {
	return Block128{x[0] ^ y[0], x[1] ^ y[1], x[2] ^ y[2], x[3] ^ y[3]}
}

// Add32 returns the block-wise mod-2^32 sum of two 128-bit blocks
// (whitening in additive mode).
func (x Block128) Add32(y Block128) Block128 {
	return Block128{x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3]}
}
