package program

import (
	"bytes"
	"testing"
	"testing/quick"

	"cobra/internal/cipher"
)

var gostKey = func() []byte {
	k := make([]byte, 32)
	for i := range k {
		k[i] = byte(i*11 + 3)
	}
	return k
}()

func TestGOSTOnCOBRA(t *testing.T) {
	ref, err := cipher.NewGOST(gostKey)
	if err != nil {
		t.Fatal(err)
	}
	// 8 GOST blocks = 4 superblocks.
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i * 7)
	}
	want := make([]byte, len(src))
	for i := 0; i < len(src); i += 8 {
		ref.Encrypt(want[i:], src[i:])
	}
	p, err := BuildGOST(gostKey)
	if err != nil {
		t.Fatal(err)
	}
	got, stats := cobraEncryptECB(t, p, src)
	if !bytes.Equal(got, want) {
		t.Errorf("gost: mismatch\n got %x\nwant %x", got, want)
	}
	// Two 64-bit blocks per pass: cycles per *GOST block* should be about
	// half the per-superblock cost.
	perGostBlock := float64(stats.Cycles) / float64(len(src)/8)
	t.Logf("gost-2: %.1f cycles per 64-bit block (%d cycles, %d superblocks)",
		perGostBlock, stats.Cycles, stats.BlocksOut)
}

func TestGOSTOnCOBRARandomized(t *testing.T) {
	f := func(key [32]byte, sb [16]byte) bool {
		ref, err := cipher.NewGOST(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, 16)
		ref.Encrypt(want[0:], sb[0:])
		ref.Encrypt(want[8:], sb[8:])
		p, err := BuildGOST(key[:])
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

func TestGOSTKeySize(t *testing.T) {
	if _, err := BuildGOST(make([]byte, 16)); err == nil {
		t.Error("expected key-size error")
	}
}
