package core

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"testing"

	"cobra/internal/cipher"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// NIST SP 800-38A, Appendix F: AES-128 mode-of-operation example vectors.
// The same key and four plaintext blocks drive F.1.1 (ECB), F.2.1 (CBC)
// and F.5.1 (CTR).
const (
	nistKey = "2b7e151628aed2a6abf7158809cf4f3c"
	nistPT  = "6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" +
		"f69f2445df4f9b17ad2b417be66c3710"

	nistECB = "3ad77bb40d7a3660a89ecaf32466ef97" +
		"f5d3d58503b9699de785895a96fdbaaf" +
		"43b1cd7f598ece23881b00e3ed030688" +
		"7b0c785e27e8ad3f8223207104725dd4"

	nistCBCIV = "000102030405060708090a0b0c0d0e0f"
	nistCBC   = "7649abac8119b246cee98e9b12e9197d" +
		"5086cb9b507219ee95db113a917678b2" +
		"73bed6b8e3c1743b7116e69e22229516" +
		"3ff1caa1681fac09120eca307586e1a7"

	nistCTRIV = "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"
	nistCTR   = "874d6191b620e3261bef6864990db6ce" +
		"9806f66b7970fdff8617187bb9fffdff" +
		"5ae4df3edbd5d35e5b4f09020db03eab" +
		"1e031dda2fbe03d1792170a0f3009cee"
)

// nistDevice configures the Rijndael datapath at every published unroll
// depth so the vectors cover both the iterative and streaming pipelines.
func nistUnrolls() []int { return []int{1, 2, 5, 10} }

// forEachNISTDevice runs f on a device at every unroll depth, so the
// official vectors pin the iterative and the streaming traces alike. The
// interpreter the traces are compiled from is held to the traces by
// package fastpath's differential suite, and to FIPS-197's vectors by
// package program's golden tests.
func forEachNISTDevice(t *testing.T, f func(t *testing.T, label string, d *Device)) {
	t.Helper()
	for _, u := range nistUnrolls() {
		d, err := Configure(Rijndael, unhex(t, nistKey), Config{Unroll: u})
		if err != nil {
			t.Fatal(err)
		}
		f(t, fmt.Sprintf("unroll %d", u), d)
	}
}

func TestRijndaelECBMatchesSP800_38A(t *testing.T) {
	pt, want := unhex(t, nistPT), unhex(t, nistECB)
	forEachNISTDevice(t, func(t *testing.T, label string, d *Device) {
		got, err := d.EncryptECB(context.Background(), pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: ECB = %x, want %x", label, got, want)
		}
	})
}

func TestRijndaelCBCMatchesSP800_38A(t *testing.T) {
	pt, iv, want := unhex(t, nistPT), unhex(t, nistCBCIV), unhex(t, nistCBC)
	forEachNISTDevice(t, func(t *testing.T, label string, d *Device) {
		got, err := d.EncryptCBC(context.Background(), iv, pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: CBC = %x, want %x", label, got, want)
		}
		back, err := d.DecryptCBC(context.Background(), iv, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, pt) {
			t.Errorf("%s: CBC round trip failed", label)
		}
	})
}

func TestRijndaelCTRMatchesSP800_38A(t *testing.T) {
	pt, iv, want := unhex(t, nistPT), unhex(t, nistCTRIV), unhex(t, nistCTR)
	forEachNISTDevice(t, func(t *testing.T, label string, d *Device) {
		got, err := d.EncryptCTR(context.Background(), iv, pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: CTR = %x, want %x", label, got, want)
		}
	})
}

// refCTR generates the counter-mode ciphertext with a host reference
// cipher — the independent oracle for the datapath's CTR path.
func refCTR(blk cipher.Block, iv, src []byte) []byte {
	dst := make([]byte, len(src))
	var c, ks [16]byte
	copy(c[:], iv)
	for off := 0; off < len(src); off += 16 {
		blk.Encrypt(ks[:], c[:])
		incCounter(&c)
		n := len(src) - off
		if n > 16 {
			n = 16
		}
		for j := 0; j < n; j++ {
			dst[off+j] = src[off+j] ^ ks[j]
		}
	}
	return dst
}

func TestCTRRoundTripAgainstHostReference(t *testing.T) {
	iv := unhex(t, "0102030405060708090a0b0c0d0e0f10")
	pt := make([]byte, 16*9)
	for i := range pt {
		pt[i] = byte(i * 7)
	}
	for _, alg := range []Algorithm{RC6, Rijndael, Serpent} {
		d, err := Configure(alg, key, Config{})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		ct, err := d.EncryptCTR(context.Background(), iv, pt)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if want := refCTR(hostRef(t, alg, key), iv, pt); !bytes.Equal(ct, want) {
			t.Errorf("%s: CTR = %x, want %x", alg, ct, want)
		}
		back, err := d.DecryptCTR(context.Background(), iv, ct)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !bytes.Equal(back, pt) {
			t.Errorf("%s: DecryptCTR(EncryptCTR(x)) != x", alg)
		}
	}
}

func TestCTRPartialFinalBlock(t *testing.T) {
	d, err := Configure(Rijndael, key, Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cipher.NewRijndael(key)
	if err != nil {
		t.Fatal(err)
	}
	iv := bytes.Repeat([]byte{0x42}, 16)
	for _, n := range []int{1, 15, 17, 33} {
		pt := bytes.Repeat([]byte{0x5a}, n)
		ct, err := d.EncryptCTR(context.Background(), iv, pt)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if want := refCTR(ref, iv, pt); !bytes.Equal(ct, want) {
			t.Errorf("n=%d: CTR = %x, want %x", n, ct, want)
		}
	}
}

func TestCTRValidation(t *testing.T) {
	d, err := Configure(Rijndael, key, Config{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.EncryptCTR(context.Background(), []byte{1, 2, 3}, make([]byte, 16)); err == nil {
		t.Error("short iv accepted")
	}
	if _, err := d.EncryptCTRInto(context.Background(), make([]byte, 8), make([]byte, 16), make([]byte, 16)); err == nil {
		t.Error("short dst accepted")
	}
	if out, err := d.EncryptCTR(context.Background(), make([]byte, 16), nil); err != nil || len(out) != 0 {
		t.Errorf("empty src: out=%v err=%v", out, err)
	}
}

func TestAddCounter(t *testing.T) {
	iv := make([]byte, 16)
	iv[15] = 0xfe
	c, err := AddCounter(iv, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 0xfe + 3 carries into byte 14.
	if c[15] != 0x01 || c[14] != 0x01 {
		t.Errorf("AddCounter carry: got %x", c)
	}
	// AddCounter(iv, n) must agree with n single increments.
	var inc [16]byte
	copy(inc[:], iv)
	for i := 0; i < 300; i++ {
		incCounter(&inc)
	}
	c, err = AddCounter(iv, 300)
	if err != nil {
		t.Fatal(err)
	}
	if c != inc {
		t.Errorf("AddCounter(300) = %x, want %x", c, inc)
	}
	// Wraparound at 2^128.
	all := bytes.Repeat([]byte{0xff}, 16)
	c, err = AddCounter(all, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c != [16]byte{} {
		t.Errorf("AddCounter wrap = %x, want zeros", c)
	}
	if _, err := AddCounter(all[:5], 1); err == nil {
		t.Error("short iv accepted")
	}
}

// TestCBCMatchesBlockAtATimeECB pins the one-block reuse path in
// EncryptCBC to the definition of the mode (XOR-then-ECB per block).
func TestCBCMatchesBlockAtATimeECB(t *testing.T) {
	for _, alg := range []Algorithm{RC6, Rijndael, Serpent} {
		d, err := Configure(alg, key, Config{})
		if err != nil {
			t.Fatal(err)
		}
		iv := bytes.Repeat([]byte{0x17}, 16)
		pt := bytes.Repeat([]byte{0xc3, 0x99}, 40)
		got, err := d.EncryptCBC(context.Background(), iv, pt)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(pt))
		prev := iv
		blk := make([]byte, 16)
		for i := 0; i < len(pt); i += 16 {
			for j := 0; j < 16; j++ {
				blk[j] = pt[i+j] ^ prev[j]
			}
			ct, err := d.EncryptECB(context.Background(), blk)
			if err != nil {
				t.Fatal(err)
			}
			copy(want[i:], ct)
			prev = want[i : i+16]
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: CBC differs from block-at-a-time ECB reference", alg)
		}
	}
}
