package program

import "fmt"

// Superblock marshalling for the 64-bit-block mappings. The datapath loads
// a 16-byte superblock as four little-endian 32-bit words
// (bits.LoadBlock128). GOST, RC5 and SIMON specify little-endian words, so
// two of their blocks concatenate into a superblock byte-for-byte; ciphers
// specified with big-endian words (TEA, Blowfish, DES) byte-swap each word
// at the host boundary instead — a reordering the byte shufflers cannot
// express, because they apply on every pass rather than once per block.

// SwapWords32 byte-swaps every aligned 4-byte group of buf in place (the
// tail of a non-multiple-of-4 buffer is left untouched). It is its own
// inverse.
func SwapWords32(buf []byte) {
	for i := 0; i+3 < len(buf); i += 4 {
		buf[i], buf[i+3] = buf[i+3], buf[i]
		buf[i+1], buf[i+2] = buf[i+2], buf[i+1]
	}
}

// copySuperblocks is Pack and Unpack for the 128-bit ciphers and the
// paired little-endian mappings, whose blocks are superblocks byte for
// byte.
func copySuperblocks(b []byte) ([]byte, error) {
	if len(b)%16 != 0 {
		return nil, fmt.Errorf("program: %d bytes is not a whole number of superblocks", len(b))
	}
	return append([]byte(nil), b...), nil
}

// packBE64 places big-endian-word 8-byte blocks one per superblock, in
// words 0 and 1 with their bytes swapped; the scratch words start zero.
func packBE64(blocks []byte) ([]byte, error) {
	if len(blocks)%8 != 0 {
		return nil, fmt.Errorf("program: %d bytes is not a whole number of 8-byte blocks", len(blocks))
	}
	out := make([]byte, 2*len(blocks))
	for i := 0; 8*i < len(blocks); i++ {
		copy(out[16*i:], blocks[8*i:8*i+8])
		SwapWords32(out[16*i : 16*i+8])
	}
	return out, nil
}

// unpackBE64 inverts packBE64 on the datapath's output, dropping the
// scratch words.
func unpackBE64(sbs []byte) ([]byte, error) {
	if len(sbs)%16 != 0 {
		return nil, fmt.Errorf("program: %d bytes is not a whole number of superblocks", len(sbs))
	}
	out := make([]byte, len(sbs)/2)
	for i := 0; 16*i < len(sbs); i++ {
		copy(out[8*i:], sbs[16*i:16*i+8])
		SwapWords32(out[8*i : 8*i+8])
	}
	return out, nil
}
