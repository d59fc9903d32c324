package fastpath

import (
	mbits "math/bits"

	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/sim"
)

// batchBlocks is the number of blocks the batch form carries through each
// op. It is a measured constant (EXPERIMENTS.md): larger batches amortize
// dispatch further but leave L1 sooner.
const batchBlocks = 32

// batchBufs is the number of column buffers a batch needs at once: a row's
// cells read its input and the previous row's while they write its output,
// and a shuffler writes its permuted input while the previous row's input
// is still live. Three vectors of Cols columns each.
const batchBufs = 3 * datapath.Cols

// batchCols is an executor's batch working set, in structure-of-arrays
// form: a buffer holds one column word of up to batchBlocks blocks, so an
// op reads and writes each operand column contiguously.
type batchCols [batchBufs][batchBlocks]uint32

// vecBufs names the buffers that hold a row vector's columns. Two columns
// never share a buffer; two vectors may (a passthrough cell hands its
// input buffer on).
type vecBufs [datapath.Cols]uint8

// mask returns the set of buffers v occupies.
//
//cobra:hotpath
func (v *vecBufs) mask() uint16 {
	return 1<<v[0] | 1<<v[1] | 1<<v[2] | 1<<v[3]
}

// take returns the lowest buffer not in *live and adds it there.
//
//cobra:hotpath
func take(live *uint16) uint8 {
	k := uint8(mbits.TrailingZeros16(^*live))
	*live |= 1 << k
	return k
}

// callStats returns the counters of an n-block call on a streaming trace:
// its cycles from the post-load state, the head and then periods, up to
// and including the cycle that emits the n-th output, walked without
// data. They are what runSeg adds over the same cycles.
//
//cobra:hotpath
func (tr *Trace) callStats(n int) sim.Stats {
	var acc sim.Stats
	ticks, out := tr.Head, 0
	for {
		for t := range ticks {
			acc.Add(ticks[t].stats)
			if ticks[t].Emit {
				if out++; out == n {
					return acc
				}
			}
		}
		ticks = tr.Period
	}
}

// runBatch computes a call's outputs on the batch form, op-major: the
// blocks go through in batches of up to batchBlocks, and each step of each
// cell runs over a whole batch in one loop before the next step starts.
// Block i of a batch is element i of every buffer, so blocks never meet.
//
//cobra:hotpath
func (e *Exec) runBatch(dst, in []bits.Block128) {
	b := e.tr.Batch
	cols := &e.cols
	for base := 0; base < len(dst); base += batchBlocks {
		blk := in[base:min(base+batchBlocks, len(dst))]
		n := len(blk)
		if n == 1 {
			// One block gains nothing from op-major order: it takes the
			// scalar chain, in registers.
			v := blk[0]
			for c := range v {
				v[c] = b.WhiteIn[c].apply(v[c])
			}
			v = evalRows(b.Rows, v, nil)
			for c := range v {
				v[c] = b.WhiteOut[c].apply(v[c])
			}
			dst[base] = v
			continue
		}
		c0, c1, c2, c3 := cols[0][:n], cols[1][:n], cols[2][:n], cols[3][:n]
		for i := range blk {
			c0[i], c1[i], c2[i], c3[i] = blk[i][0], blk[i][1], blk[i][2], blk[i][3]
		}
		vec := vecBufs{0, 1, 2, 3}
		for c, k := range vec {
			whiten(b.WhiteIn[c], cols[k][:n])
		}
		vec = batchRows(cols, b.Rows, vec, n)
		for c, k := range vec {
			whiten(b.WhiteOut[c], cols[k][:n])
		}
		out := dst[base : base+n]
		c0, c1, c2, c3 = cols[vec[0]][:n], cols[vec[1]][:n], cols[vec[2]][:n], cols[vec[3]][:n]
		for i := range out {
			out[i] = bits.Block128{c0[i], c1[i], c2[i], c3[i]}
		}
	}
}

// whiten applies one column's whitening to a batch of words.
//
//cobra:hotpath
func whiten(w TraceWhite, x []uint32) {
	switch w.Mode {
	case isa.WhiteXor:
		for i := range x {
			x[i] ^= w.Key
		}
	case isa.WhiteAdd:
		for i := range x {
			x[i] += w.Key
		}
	}
}

// batchRows passes a batch of n blocks, held in the buffers vec, through
// every row once, in order, and returns the buffers of the result. A
// registered cell passes on its own block's value: under the batch form's
// conditions that is what its register presents to the next row one cycle
// later, when that row holds the same block.
//
//cobra:hotpath
func batchRows(cols *batchCols, rows []TraceRow, vec vecBufs, n int) vecBufs {
	prev := vec
	for r := range rows {
		row := &rows[r]
		if row.Shuffle != nil {
			// The unshuffled vector dies here; prev stays live for the
			// row's cells.
			live := prev.mask() | vec.mask()
			var sh vecBufs
			for oc := range sh {
				sh[oc] = take(&live)
				shuffleCol(cols, row.Shuffle, &vec, oc, cols[sh[oc]][:n])
			}
			vec = sh
		}
		live := prev.mask() | vec.mask()
		var out vecBufs
		for c := range row.Cells {
			cell := &row.Cells[c]
			if cell.Passthrough {
				out[c] = vec[c]
				continue
			}
			out[c] = take(&live)
			x := cols[out[c]][:n]
			src := vec[cell.Insel&3]
			if cell.Insel >= 4 {
				src = prev[cell.Insel&3]
			}
			copy(x, cols[src][:n])
			batchSteps(cell.Steps, x, cols, &vec)
		}
		prev, vec = vec, out
	}
	return vec
}

// shuffleCol writes output column oc of a byte shuffler (perm[dst] = src
// byte index, as in shuffleBytes) for a batch: each of the column's four
// bytes is one source column rotated into place and masked.
//
//cobra:hotpath
func shuffleCol(cols *batchCols, perm *[16]uint8, vec *vecBufs, oc int, x []uint32) {
	var src [4][]uint32
	var rot [4]int
	for k := range src {
		p := perm[4*oc+k]
		src[k] = cols[vec[p>>2]][:len(x)]
		rot[k] = 8 * (k - int(p&3))
	}
	s0, s1, s2, s3 := src[0][:len(x)], src[1][:len(x)], src[2][:len(x)], src[3][:len(x)]
	if rot == [4]int{} {
		// Every byte keeps its position (Rijndael's ShiftRows).
		for i := range x {
			x[i] = s0[i]&0xff | s1[i]&0xff00 | s2[i]&0xff0000 | s3[i]&0xff000000
		}
		return
	}
	for i := range x {
		x[i] = mbits.RotateLeft32(s0[i], rot[0])&0xff |
			mbits.RotateLeft32(s1[i], rot[1])&0xff00 |
			mbits.RotateLeft32(s2[i], rot[2])&0xff0000 |
			mbits.RotateLeft32(s3[i], rot[3])&0xff000000
	}
}

// batchSteps runs one RCE's compiled element chain over a batch of words
// in x, in place, one step at a time: evalSteps op-major. Block operands
// are read from the row input's buffers vec.
//
//cobra:hotpath
func batchSteps(steps []TraceStep, x []uint32, cols *batchCols, vec *vecBufs) {
	n := len(x)
	for si := range steps {
		st := &steps[si]
		switch st.Kind {
		case StepXorImm:
			k := st.Imm
			for i := range x {
				x[i] ^= k
			}
		case StepXorBlk:
			v := cols[vec[st.Src]][:n]
			if st.Aux == 0 {
				for i := range x {
					x[i] ^= v[i]
				}
			} else {
				for i := range x {
					x[i] ^= preShift(v[i], st.Aux, st.Flag)
				}
			}
		case StepAddImm:
			k, w := st.Imm, bits.Width(st.Aux)
			if w == bits.W32 {
				for i := range x {
					x[i] += k
				}
			} else {
				for i := range x {
					x[i] = bits.AddMod(x[i], k, w)
				}
			}
		case StepAddBlk:
			v, w := cols[vec[st.Src]][:n], bits.Width(st.Aux)
			if w == bits.W32 {
				for i := range x {
					x[i] += v[i]
				}
			} else {
				for i := range x {
					x[i] = bits.AddMod(x[i], v[i], w)
				}
			}
		case StepRotlImm:
			k := int(st.Aux & 31)
			for i := range x {
				x[i] = mbits.RotateLeft32(x[i], k)
			}
		case StepRotlVar:
			v := cols[vec[st.Src]][:n]
			for i := range x {
				x[i] = bits.RotL(x[i], varAmt(v[i], st.Flag))
			}
		case StepShlImm:
			k := uint(st.Aux)
			for i := range x {
				x[i] = bits.Shl(x[i], k)
			}
		case StepShrImm:
			k := uint(st.Aux)
			for i := range x {
				x[i] = bits.Shr(x[i], k)
			}
		case StepShlVar:
			v := cols[vec[st.Src]][:n]
			for i := range x {
				x[i] = bits.Shl(x[i], varAmt(v[i], st.Flag))
			}
		case StepShrVar:
			v := cols[vec[st.Src]][:n]
			for i := range x {
				x[i] = bits.Shr(x[i], varAmt(v[i], st.Flag))
			}
		case StepAndImm:
			k := st.Imm
			for i := range x {
				x[i] &= k
			}
		case StepAndBlk:
			v := cols[vec[st.Src]][:n]
			for i := range x {
				x[i] &= preShift(v[i], st.Aux, st.Flag)
			}
		case StepOrImm:
			k := st.Imm
			for i := range x {
				x[i] |= k
			}
		case StepOrBlk:
			v := cols[vec[st.Src]][:n]
			for i := range x {
				x[i] |= preShift(v[i], st.Aux, st.Flag)
			}
		case StepSubImm:
			k, w := st.Imm, bits.Width(st.Aux)
			for i := range x {
				x[i] = bits.SubMod(x[i], k, w)
			}
		case StepSubBlk:
			v, w := cols[vec[st.Src]][:n], bits.Width(st.Aux)
			for i := range x {
				x[i] = bits.SubMod(x[i], v[i], w)
			}
		case StepS8:
			t := &st.LUT.S8
			for i, v := range x {
				x[i] = uint32(t[0][uint8(v)]) |
					uint32(t[1][uint8(v>>8)])<<8 |
					uint32(t[2][uint8(v>>16)])<<16 |
					uint32(t[3][uint8(v>>24)])<<24
			}
		case StepS4:
			t := s4Page(st)
			for i, v := range x {
				x[i] = s4Half(t[0], t[1], v) | s4Half(t[2], t[3], v>>16)<<16
			}
		case StepS8to32:
			sh, t := 8*uint(st.Aux), &st.LUT.S8
			for i, v := range x {
				b := uint8(v >> sh)
				x[i] = uint32(t[0][b]) | uint32(t[1][b])<<8 | uint32(t[2][b])<<16 | uint32(t[3][b])<<24
			}
		case StepMulImm:
			k, w := st.Imm, bits.Width(st.Aux)
			for i := range x {
				x[i] = bits.MulMod(x[i], k, w)
			}
		case StepMulBlk:
			v, w := cols[vec[st.Src]][:n], bits.Width(st.Aux)
			for i := range x {
				x[i] = bits.MulMod(x[i], v[i], w)
			}
		case StepSquare:
			for i := range x {
				x[i] = bits.SquareMod32(x[i])
			}
		case StepGFTab:
			t := st.GF
			for i, v := range x {
				x[i] = t[0][v&0xff] ^ t[1][v>>8&0xff] ^ t[2][v>>16&0xff] ^ t[3][v>>24]
			}
		}
	}
}
