package program

import (
	"bytes"
	"testing"
	"testing/quick"

	"cobra/internal/cipher"
)

// teaDepths are every unroll depth that divides the 32 rounds.
var teaDepths = []int{1, 2, 4, 8, 16, 32}

// be64Pack and be64Unpack are packBE64 and unpackBE64 for the tests'
// whole-block inputs, which cannot fail.
func be64Pack(blocks []byte) []byte { sbs, _ := packBE64(blocks); return sbs }
func be64Unpack(sbs []byte) []byte  { blocks, _ := unpackBE64(sbs); return blocks }

func TestTEAOnCOBRAAllUnrolls(t *testing.T) {
	ref, err := cipher.NewTEA(testKey)
	if err != nil {
		t.Fatal(err)
	}
	want := refEncryptECB(t, ref, testPlain) // 8 TEA blocks, one per superblock
	for _, hw := range teaDepths {
		p, err := BuildTEA(testKey, hw)
		if err != nil {
			t.Fatalf("tea-%d: %v", hw, err)
		}
		got, stats := cobraEncryptECB(t, p, be64Pack(testPlain))
		if !bytes.Equal(be64Unpack(got), want) {
			t.Errorf("tea-%d: ciphertext mismatch\n got %x\nwant %x", hw, be64Unpack(got), want)
		}
		perBlock := float64(stats.Cycles) / float64(len(testPlain)/8)
		t.Logf("tea-%d: %.1f cycles per 64-bit block (%d cycles)", hw, perBlock, stats.Cycles)
	}
}

func TestTEADecryptOnCOBRAAllUnrolls(t *testing.T) {
	ref, err := cipher.NewTEA(testKey)
	if err != nil {
		t.Fatal(err)
	}
	ct := refEncryptECB(t, ref, testPlain)
	for _, hw := range teaDepths {
		p, err := BuildTEADecrypt(testKey, hw)
		if err != nil {
			t.Fatalf("tea-dec-%d: %v", hw, err)
		}
		got, _ := cobraEncryptECB(t, p, be64Pack(ct))
		if !bytes.Equal(be64Unpack(got), testPlain) {
			t.Errorf("tea-dec-%d: plaintext mismatch\n got %x\nwant %x", hw, be64Unpack(got), testPlain)
		}
	}
}

func TestTEAOnCOBRARandomized(t *testing.T) {
	f := func(key [16]byte, blk [8]byte) bool {
		ref, err := cipher.NewTEA(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, 8)
		ref.Encrypt(want, blk[:])
		p, err := BuildTEA(key[:], 2)
		if err != nil {
			return false
		}
		m, err := NewMachine(p)
		if err != nil {
			return false
		}
		if err := Load(m, p); err != nil {
			return false
		}
		got := be64Pack(blk[:])
		_, err = RunBytes(m, p, got, got, Opts{})
		return err == nil && bytes.Equal(be64Unpack(got), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestTEAUnrollRejectsBadDepth(t *testing.T) {
	if _, err := BuildTEA(testKey, 3); err == nil {
		t.Error("expected error: 3 does not divide 32")
	}
	if _, err := BuildTEADecrypt(testKey, 0); err == nil {
		t.Error("expected error for depth 0")
	}
	if _, err := BuildTEA(make([]byte, 8), 2); err == nil {
		t.Error("expected key size error")
	}
}
