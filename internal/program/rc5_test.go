package program

import (
	"bytes"
	"testing"
	"testing/quick"

	"cobra/internal/cipher"
)

// rc5Depths are every unroll depth that divides the 12 rounds.
var rc5Depths = []int{1, 2, 3, 4, 6, 12}

func TestRC5OnCOBRAAllUnrolls(t *testing.T) {
	ref, err := cipher.NewRC5(testKey)
	if err != nil {
		t.Fatal(err)
	}
	want := refEncryptECB(t, ref, testPlain) // 8 RC5 blocks in 4 superblocks
	for _, hw := range rc5Depths {
		p, err := BuildRC5(testKey, hw, cipher.RC5Rounds)
		if err != nil {
			t.Fatalf("rc5-%d: %v", hw, err)
		}
		got, stats := cobraEncryptECB(t, p, testPlain)
		if !bytes.Equal(got, want) {
			t.Errorf("rc5-%d: ciphertext mismatch\n got %x\nwant %x", hw, got, want)
		}
		perBlock := float64(stats.Cycles) / float64(len(testPlain)/8)
		t.Logf("rc5-%d: %.1f cycles per 64-bit block (%d cycles)", hw, perBlock, stats.Cycles)
	}
}

func TestRC5DecryptOnCOBRAAllUnrolls(t *testing.T) {
	ref, err := cipher.NewRC5(testKey)
	if err != nil {
		t.Fatal(err)
	}
	ct := refEncryptECB(t, ref, testPlain)
	for _, hw := range rc5Depths {
		p, err := BuildRC5Decrypt(testKey, hw, cipher.RC5Rounds)
		if err != nil {
			t.Fatalf("rc5-dec-%d: %v", hw, err)
		}
		got, _ := cobraEncryptECB(t, p, ct)
		if !bytes.Equal(got, testPlain) {
			t.Errorf("rc5-dec-%d: plaintext mismatch\n got %x\nwant %x", hw, got, testPlain)
		}
	}
}

func TestRC5OnCOBRARandomized(t *testing.T) {
	f := func(key [16]byte, sb [16]byte) bool {
		ref, err := cipher.NewRC5(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, 16)
		ref.Encrypt(want[0:], sb[0:])
		ref.Encrypt(want[8:], sb[8:])
		p, err := BuildRC5(key[:], 2, cipher.RC5Rounds)
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

func TestRC5UnrollRejectsBadDepth(t *testing.T) {
	if _, err := BuildRC5(testKey, 5, cipher.RC5Rounds); err == nil {
		t.Error("expected error: 5 does not divide 12")
	}
	if _, err := BuildRC5Decrypt(testKey, 0, cipher.RC5Rounds); err == nil {
		t.Error("expected error for depth 0")
	}
	if _, err := BuildRC5(nil, 2, cipher.RC5Rounds); err == nil {
		t.Error("expected key size error")
	}
}
