package program

import (
	"bytes"
	"testing"
	"testing/quick"

	"cobra/internal/cipher"
)

// simonDepths are every unroll depth that divides the 44 rounds.
var simonDepths = []int{1, 2, 4, 11, 22, 44}

func TestSIMONOnCOBRAAllUnrolls(t *testing.T) {
	ref, err := cipher.NewSIMON64(testKey)
	if err != nil {
		t.Fatal(err)
	}
	want := refEncryptECB(t, ref, testPlain) // 8 SIMON blocks in 4 superblocks
	for _, hw := range simonDepths {
		p, err := BuildSIMON(testKey, hw)
		if err != nil {
			t.Fatalf("simon64-%d: %v", hw, err)
		}
		got, stats := cobraEncryptECB(t, p, testPlain)
		if !bytes.Equal(got, want) {
			t.Errorf("simon64-%d: ciphertext mismatch\n got %x\nwant %x", hw, got, want)
		}
		perBlock := float64(stats.Cycles) / float64(len(testPlain)/8)
		t.Logf("simon64-%d: %.1f cycles per 64-bit block (%d cycles)", hw, perBlock, stats.Cycles)
	}
}

func TestSIMONDecryptOnCOBRAAllUnrolls(t *testing.T) {
	ref, err := cipher.NewSIMON64(testKey)
	if err != nil {
		t.Fatal(err)
	}
	ct := refEncryptECB(t, ref, testPlain)
	for _, hw := range simonDepths {
		p, err := BuildSIMONDecrypt(testKey, hw)
		if err != nil {
			t.Fatalf("simon64-dec-%d: %v", hw, err)
		}
		got, _ := cobraEncryptECB(t, p, ct)
		if !bytes.Equal(got, testPlain) {
			t.Errorf("simon64-dec-%d: plaintext mismatch\n got %x\nwant %x", hw, got, testPlain)
		}
	}
}

func TestSIMONOnCOBRARandomized(t *testing.T) {
	f := func(key [16]byte, sb [16]byte) bool {
		ref, err := cipher.NewSIMON64(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, 16)
		ref.Encrypt(want[0:], sb[0:])
		ref.Encrypt(want[8:], sb[8:])
		p, err := BuildSIMON(key[:], 4)
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
		got := make([]byte, len(sb))
		_, err = RunBytes(m, p, got, sb[:], Opts{})
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSIMONUnrollRejectsBadDepth(t *testing.T) {
	if _, err := BuildSIMON(testKey, 3); err == nil {
		t.Error("expected error: 3 does not divide 44")
	}
	if _, err := BuildSIMONDecrypt(testKey, 0); err == nil {
		t.Error("expected error for depth 0")
	}
	if _, err := BuildSIMON(make([]byte, 8), 2); err == nil {
		t.Error("expected key size error")
	}
}
