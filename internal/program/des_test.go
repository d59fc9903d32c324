package program

import (
	"bytes"
	"testing"
	"testing/quick"

	"cobra/internal/cipher"
)

func desPackT(t *testing.T, blocks []byte) []byte {
	t.Helper()
	sbs, err := DESPack(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return sbs
}

func desUnpackT(t *testing.T, sbs []byte) []byte {
	t.Helper()
	blocks, err := DESUnpack(sbs)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

func TestDESOnCOBRA(t *testing.T) {
	key := testKey[:8]
	ref, err := cipher.NewDES(key)
	if err != nil {
		t.Fatal(err)
	}
	want := refEncryptECB(t, ref, testPlain) // 8 blocks, one per superblock
	p, err := BuildDES(key)
	if err != nil {
		t.Fatal(err)
	}
	got, stats := cobraEncryptECB(t, p, desPackT(t, testPlain))
	if !bytes.Equal(desUnpackT(t, got), want) {
		t.Errorf("des-1: ciphertext mismatch\n got %x\nwant %x", desUnpackT(t, got), want)
	}
	perBlock := float64(stats.Cycles) / float64(len(testPlain)/8)
	t.Logf("des-1: %.1f cycles per 64-bit block (%d cycles)", perBlock, stats.Cycles)
}

func TestDESDecryptOnCOBRA(t *testing.T) {
	key := testKey[:8]
	ref, err := cipher.NewDES(key)
	if err != nil {
		t.Fatal(err)
	}
	ct := refEncryptECB(t, ref, testPlain)
	p, err := BuildDESDecrypt(key)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := cobraEncryptECB(t, p, desPackT(t, ct))
	if !bytes.Equal(desUnpackT(t, got), testPlain) {
		t.Errorf("des-dec-1: plaintext mismatch\n got %x\nwant %x", desUnpackT(t, got), testPlain)
	}
}

func TestDESOnCOBRARandomized(t *testing.T) {
	f := func(key [8]byte, blk [8]byte) bool {
		ref, err := cipher.NewDES(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, 8)
		ref.Encrypt(want, blk[:])
		p, err := BuildDES(key[:])
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
		sbs, err := DESPack(blk[:])
		if err != nil {
			return false
		}
		got := make([]byte, len(sbs))
		_, err = RunBytes(m, p, got, sbs, Opts{})
		if err != nil {
			return false
		}
		out, err := DESUnpack(got)
		return err == nil && bytes.Equal(out, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDESPackRejectsRaggedInput(t *testing.T) {
	if _, err := DESPack(make([]byte, 12)); err == nil {
		t.Error("expected error for a partial block")
	}
	if _, err := DESUnpack(make([]byte, 24)); err == nil {
		t.Error("expected error for a partial superblock")
	}
	if _, err := BuildDES(make([]byte, 16)); err == nil {
		t.Error("expected key size error")
	}
}
