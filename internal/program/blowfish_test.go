package program

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"cobra/internal/cipher"
	"cobra/internal/isa"
)

// blowfishDepths are the unroll depths the iRAM's LUT budget admits.
var blowfishDepths = []int{1, 2}

func TestBlowfishOnCOBRAAllUnrolls(t *testing.T) {
	ref, err := cipher.NewBlowfish(testKey)
	if err != nil {
		t.Fatal(err)
	}
	want := refEncryptECB(t, ref, testPlain) // 8 blocks, one per superblock
	for _, hw := range blowfishDepths {
		p, err := BuildBlowfish(testKey, hw)
		if err != nil {
			t.Fatalf("blowfish-%d: %v", hw, err)
		}
		got, stats := cobraEncryptECB(t, p, be64Pack(testPlain))
		if !bytes.Equal(be64Unpack(got), want) {
			t.Errorf("blowfish-%d: ciphertext mismatch\n got %x\nwant %x", hw, be64Unpack(got), want)
		}
		perBlock := float64(stats.Cycles) / float64(len(testPlain)/8)
		t.Logf("blowfish-%d: %.1f cycles per 64-bit block (%d cycles)", hw, perBlock, stats.Cycles)
	}
}

func TestBlowfishDecryptOnCOBRAAllUnrolls(t *testing.T) {
	ref, err := cipher.NewBlowfish(testKey)
	if err != nil {
		t.Fatal(err)
	}
	ct := refEncryptECB(t, ref, testPlain)
	for _, hw := range blowfishDepths {
		p, err := BuildBlowfishDecrypt(testKey, hw)
		if err != nil {
			t.Fatalf("blowfish-dec-%d: %v", hw, err)
		}
		got, _ := cobraEncryptECB(t, p, be64Pack(ct))
		if !bytes.Equal(be64Unpack(got), testPlain) {
			t.Errorf("blowfish-dec-%d: plaintext mismatch\n got %x\nwant %x", hw, be64Unpack(got), testPlain)
		}
	}
}

func TestBlowfishOnCOBRARandomized(t *testing.T) {
	f := func(key [16]byte, blk [8]byte) bool {
		ref, err := cipher.NewBlowfish(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, 8)
		ref.Encrypt(want, blk[:])
		p, err := BuildBlowfish(key[:], 1)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestBlowfishUnrollRejectsBadDepth(t *testing.T) {
	if _, err := BuildBlowfish(testKey, 3); err == nil {
		t.Error("expected error: 3 does not divide 16")
	}
	if _, err := BuildBlowfish(testKey, 4); err == nil {
		t.Error("expected error: depth 4 exceeds the LUT budget")
	}
	if _, err := BuildBlowfishDecrypt(testKey, 0); err == nil {
		t.Error("expected error for depth 0")
	}
	if _, err := BuildBlowfish(nil, 1); err == nil {
		t.Error("expected key size error")
	}
}

// TestBlowfishIRAMBudgetError pins the typed refusal: depths past the LUT
// budget return *ErrIRAMBudget with the word arithmetic, the boundary
// depth builds, and a depth that fails unroll validation (3 does not
// divide 16) is NOT a budget error — validation runs first.
func TestBlowfishIRAMBudgetError(t *testing.T) {
	for _, hw := range []int{4, 8, 16} {
		_, err := BuildBlowfish(testKey, hw)
		var budget *ErrIRAMBudget
		if !errors.As(err, &budget) {
			t.Fatalf("depth %d: err = %v, want *ErrIRAMBudget", hw, err)
		}
		if want := hw * 4 * 4 * 64; budget.Needed != want {
			t.Errorf("depth %d: Needed = %d, want %d", hw, budget.Needed, want)
		}
		if budget.Available != isa.IRAMWords {
			t.Errorf("depth %d: Available = %d, want %d", hw, budget.Available, isa.IRAMWords)
		}
		if want := fmt.Sprintf("blowfish-%d", hw); budget.Name != want {
			t.Errorf("depth %d: Name = %q, want %q", hw, budget.Name, want)
		}
		if !strings.Contains(budget.Error(), "iRAM") {
			t.Errorf("depth %d: Error() = %q", hw, budget.Error())
		}
		var decBudget *ErrIRAMBudget
		if _, err := BuildBlowfishDecrypt(testKey, hw); !errors.As(err, &decBudget) {
			t.Errorf("decrypt depth %d: err = %v, want *ErrIRAMBudget", hw, err)
		}
	}
	// Boundary: depth 2 is the deepest configuration that fits.
	if _, err := BuildBlowfish(testKey, 2); err != nil {
		t.Errorf("depth 2 should build: %v", err)
	}
	// Depth 3 fails unroll validation before the budget check ever runs.
	_, err := BuildBlowfish(testKey, 3)
	var budget *ErrIRAMBudget
	if err == nil || errors.As(err, &budget) {
		t.Errorf("depth 3: err = %v, want a non-budget validation error", err)
	}
}
