package fastpath

import (
	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/sim"
)

// runSeg replays a compiled cycle segment from index start: the executor's
// inner loop on a trace without a batch form. Each cycle's attributed
// counters are accumulated into acc, so the total matches the
// interpreter's delta for the same stretch. The segment stops immediately
// after the cycle that emits the want-th output — exactly where the
// interpreter's run would stop — and returns the index one past the last
// executed cycle (len(ticks) when it ran to the end). Stall cycles only
// move counters; enabled cycles move one 128-bit vector down the whole
// array exactly as datapath.Tick would, but with every configuration
// decision pre-resolved.
//
//cobra:hotpath
func (e *Exec) runSeg(ticks []TraceTick, start int, in []bits.Block128, inPos *int, dst []bits.Block128, want int, outPos *int, acc *sim.Stats) int {
	for t := start; t < len(ticks); t++ {
		ct := &ticks[t]
		acc.Add(ct.stats)
		if !ct.Enabled {
			continue
		}
		var vec bits.Block128
		switch ct.InMode {
		case isa.InExternal:
			vec = in[*inPos]
			*inPos++
		case isa.InFeedback:
			vec = e.fb
		default:
			vec = ct.ERAMVec
		}
		for c := 0; c < datapath.Cols; c++ {
			vec[c] = ct.WhiteIn[c].apply(vec[c])
		}

		vec = evalRows(ct.Rows, vec, e.reg)
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

// evalRows moves one row vector down a compiled row list, as
// datapath.Tick would. Given the executor's registers, a registered cell
// presents its stored value and stores the new one: one cycle of runSeg.
// Given nil, it passes on its own value: one block's pass through the
// batch form, which runBatch takes for a batch of one.
//
//cobra:hotpath
func evalRows(rows []TraceRow, vec bits.Block128, reg [][datapath.Cols]uint32) bits.Block128 {
	prev := vec
	for r := range rows {
		row := &rows[r]
		if row.Shuffle != nil {
			vec = shuffleBytes(vec, row.Shuffle)
		}
		rowIn := vec
		var out bits.Block128
		var regRow *[datapath.Cols]uint32
		if reg != nil {
			regRow = &reg[r]
		}
		for c := 0; c < datapath.Cols; c++ {
			cell := &row.Cells[c]
			if cell.Passthrough {
				out[c] = vec[c]
				continue
			}
			if cell.RegOnly && regRow != nil {
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
			if cell.Reg && regRow != nil {
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
	return vec
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
			t := s4Page(st)
			x = s4Half(t[0], t[1], x) | s4Half(t[2], t[3], x>>16)<<16
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

// s4Page returns the 16-entry page of each of an S4 step's four tables
// that its Aux selects; nibble lanes 2b and 2b+1 of a word read table b.
//
//cobra:hotpath
func s4Page(st *TraceStep) [4]*[16]uint8 {
	base := 16 * int(st.Aux)
	t := &st.LUT.S4
	return [4]*[16]uint8{(*[16]uint8)(t[0][base:]), (*[16]uint8)(t[1][base:]),
		(*[16]uint8)(t[2][base:]), (*[16]uint8)(t[3][base:])}
}

// s4Half substitutes the four nibble lanes of x's low half word, the low
// two through page t0 and the high two through t1, keeping the low four
// bits of each entry. An S4 step is two of these (s4Page).
//
//cobra:hotpath
func s4Half(t0, t1 *[16]uint8, x uint32) uint32 {
	return uint32(t0[x&0xf]&0xf) | uint32(t0[x>>4&0xf]&0xf)<<4 |
		uint32(t1[x>>8&0xf]&0xf)<<8 | uint32(t1[x>>12&0xf]&0xf)<<12
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
