package fastpath

import (
	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/sim"
)

// runSeg replays a compiled cycle segment from index start: the executor's
// inner loop. Each cycle's attributed counters are accumulated into acc, so
// the total matches the interpreter's delta for the same stretch. The
// segment stops immediately after the cycle that emits the want-th output —
// exactly where the interpreter's run would stop — and returns the index
// one past the last executed cycle (len(ticks) when it ran to the end).
// Stall cycles only move counters; enabled cycles move one 128-bit vector
// down the array exactly as datapath.Tick would, but with every
// configuration decision pre-resolved. On a banded trace an enabled cycle
// evaluates only the bands that hold one of the call's want blocks (see
// the package doc).
//
//cobra:hotpath
func (e *Exec) runSeg(ticks []TraceTick, start int, in []bits.Block128, inPos *int, dst []bits.Block128, want int, outPos *int, acc *sim.Stats) int {
	bands := e.tr.Bands
	for t := start; t < len(ticks); t++ {
		ct := &ticks[t]
		acc.Add(ct.stats)
		if !ct.Enabled {
			continue
		}
		// Rows [r0, r1) are evaluated. Every enabled cycle of a banded
		// trace consumes a block, so *inPos is the cycle's index j, and
		// band s holds block j−s.
		r0, r1 := 0, len(ct.Rows)
		top, bottom := true, true
		if bands != nil {
			j, depth := *inPos, len(bands)-2
			lo, hi := max(0, j-want+1), min(j, depth)
			r0, r1 = bands[lo], bands[hi+1]
			top, bottom = lo == 0, hi == depth
		}
		var vec bits.Block128
		switch {
		case !top:
			// Band 0 would take a flush block; the first live band starts
			// from the register row above it.
			vec = e.reg[r0-1]
			*inPos++
		case ct.InMode == isa.InExternal:
			vec = in[*inPos]
			*inPos++
		case ct.InMode == isa.InFeedback:
			vec = e.fb
		default:
			vec = ct.ERAMVec
		}
		if top {
			for c := 0; c < datapath.Cols; c++ {
				vec[c] = ct.WhiteIn[c].apply(vec[c])
			}
		}

		prev := vec
		for r := r0; r < r1; r++ {
			row := &ct.Rows[r]
			if row.Shuffle != nil {
				vec = shuffleBytes(vec, row.Shuffle)
			}
			rowIn := vec
			var out bits.Block128
			regRow := &e.reg[r]
			for c := 0; c < datapath.Cols; c++ {
				cell := &row.Cells[c]
				if cell.Passthrough {
					out[c] = vec[c]
					continue
				}
				if cell.RegOnly {
					out[c] = regRow[c]
					continue
				}
				var x uint32
				if cell.Insel < 4 {
					x = vec[cell.Insel]
				} else {
					x = prev[cell.Insel-4]
				}
				x = evalSteps(cell.Steps, x, &vec)
				if cell.Reg {
					// In-place swap is safe: regRow[c] is read only by this
					// cell within the cycle.
					out[c] = regRow[c]
					regRow[c] = x
				} else {
					out[c] = x
				}
			}
			vec = out
			prev = rowIn
		}

		if !bottom {
			// Band depth holds no block of the call yet: nothing emits.
			continue
		}
		for c := 0; c < datapath.Cols; c++ {
			vec[c] = ct.WhiteOut[c].apply(vec[c])
		}
		e.fb = vec
		if ct.Emit {
			dst[*outPos] = vec
			*outPos++
			if *outPos == want {
				return t + 1
			}
		}
	}
	return len(ticks)
}

// evalSteps runs one RCE's compiled element chain.
//
//cobra:hotpath
func evalSteps(steps []TraceStep, x uint32, vec *bits.Block128) uint32 {
	for i := range steps {
		st := &steps[i]
		switch st.Kind {
		case StepXorImm:
			x ^= st.Imm
		case StepXorBlk:
			x ^= preShift(vec[st.Src], st.Aux, st.Flag)
		case StepAddImm:
			x = bits.AddMod(x, st.Imm, bits.Width(st.Aux))
		case StepAddBlk:
			x = bits.AddMod(x, vec[st.Src], bits.Width(st.Aux))
		case StepRotlImm:
			x = bits.RotL(x, uint(st.Aux))
		case StepRotlVar:
			x = bits.RotL(x, varAmt(vec[st.Src], st.Flag))
		case StepShlImm:
			x = bits.Shl(x, uint(st.Aux))
		case StepShrImm:
			x = bits.Shr(x, uint(st.Aux))
		case StepShlVar:
			x = bits.Shl(x, varAmt(vec[st.Src], st.Flag))
		case StepShrVar:
			x = bits.Shr(x, varAmt(vec[st.Src], st.Flag))
		case StepAndImm:
			x &= st.Imm
		case StepAndBlk:
			x &= preShift(vec[st.Src], st.Aux, st.Flag)
		case StepOrImm:
			x |= st.Imm
		case StepOrBlk:
			x |= preShift(vec[st.Src], st.Aux, st.Flag)
		case StepSubImm:
			x = bits.SubMod(x, st.Imm, bits.Width(st.Aux))
		case StepSubBlk:
			x = bits.SubMod(x, vec[st.Src], bits.Width(st.Aux))
		case StepS8:
			t := &st.LUT.S8
			x = uint32(t[0][uint8(x)]) |
				uint32(t[1][uint8(x>>8)])<<8 |
				uint32(t[2][uint8(x>>16)])<<16 |
				uint32(t[3][uint8(x>>24)])<<24
		case StepS4:
			base := uint32(st.Aux) * 16
			t := &st.LUT.S4
			var out uint32
			for lane := 0; lane < 8; lane++ {
				n := x >> (4 * uint(lane)) & 0xf
				out |= uint32(t[lane/2][base+n]&0xf) << (4 * uint(lane))
			}
			x = out
		case StepS8to32:
			b := uint8(x >> (8 * uint(st.Aux)))
			t := &st.LUT.S8
			x = uint32(t[0][b]) | uint32(t[1][b])<<8 | uint32(t[2][b])<<16 | uint32(t[3][b])<<24
		case StepMulImm:
			x = bits.MulMod(x, st.Imm, bits.Width(st.Aux))
		case StepMulBlk:
			x = bits.MulMod(x, vec[st.Src], bits.Width(st.Aux))
		case StepSquare:
			x = bits.SquareMod32(x)
		case StepGFTab:
			t := st.GF
			x = t[0][x&0xff] ^ t[1][x>>8&0xff] ^ t[2][x>>16&0xff] ^ t[3][x>>24]
		}
	}
	return x
}

// varAmt extracts a data-dependent shift amount: the low five bits of the
// selected block, negated mod 32 when the E element's Neg stage is active.
//
//cobra:hotpath
func varAmt(v uint32, neg bool) uint {
	amt := uint(v & 31)
	if neg {
		amt = (32 - amt) & 31
	}
	return amt
}

// preShift applies an A element's fixed operand pre-shift.
//
//cobra:hotpath
func preShift(v uint32, amt uint8, rot bool) uint32 {
	if amt == 0 {
		return v
	}
	if rot {
		return bits.RotL(v, uint(amt))
	}
	return bits.Shl(v, uint(amt))
}

// shuffleBytes permutes the 16 bytes of the stream through a compiled
// shuffler permutation (perm[dst] = src byte index).
//
//cobra:hotpath
func shuffleBytes(v bits.Block128, perm *[16]uint8) bits.Block128 {
	var out bits.Block128
	for dst := 0; dst < 16; dst++ {
		b := uint8(v[perm[dst]>>2] >> (8 * uint(perm[dst]&3)))
		out[dst>>2] |= uint32(b) << (8 * uint(dst&3))
	}
	return out
}
