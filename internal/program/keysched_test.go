package program

import (
	"bytes"
	"testing"
	"testing/quick"

	"cobra/internal/cipher"
)

func TestRijndaelKeyedSchedulesOnDatapath(t *testing.T) {
	p, err := BuildRijndaelKeyed()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	ksCycles, err := LoadKeyed(m, p, testKey)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("key schedule: %d datapath cycles", ksCycles)

	// The captured eRAM contents must equal the reference key schedule.
	ref, err := cipher.NewRijndael(testKey)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r <= cipher.AESRounds; r++ {
		want := ref.RoundKeyWords(r)
		for c := 0; c < 4; c++ {
			if got := m.Array.ReadERAM(c, 0, r); got != want[c] {
				t.Fatalf("rk[%d][%d] = %#x, want %#x", r, c, got, want[c])
			}
		}
	}

	// And the encryption phase must produce correct AES ciphertext —
	// including the FIPS-197 block, end to end from just the raw key.
	got := make([]byte, len(testPlain))
	_, err = RunBytes(m, p, got, testPlain, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	want := refEncryptECB(t, ref, testPlain)
	if !bytes.Equal(got, want) {
		t.Errorf("keyed program ciphertext mismatch\n got %x\nwant %x", got, want)
	}
}

func TestRijndaelKeyedIsKeyIndependent(t *testing.T) {
	// One program image serves any key: re-run the handshake with new key
	// material on the same machine.
	p, err := BuildRijndaelKeyed()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	f := func(key [16]byte, pt [16]byte) bool {
		if _, err := LoadKeyed(m, p, key[:]); err != nil {
			return false
		}
		got := make([]byte, len(pt))
		_, err = RunBytes(m, p, got, pt[:], Opts{})
		if err != nil {
			return false
		}
		ref, err := cipher.NewRijndael(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, 16)
		ref.Encrypt(want, pt[:])
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestLoadKeyedValidation(t *testing.T) {
	p, err := BuildRijndaelKeyed()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeyed(m, p, make([]byte, 8)); err == nil {
		t.Error("expected key-size error")
	}
	plain, err := BuildRijndael(testKey, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeyed(m, plain, testKey); err == nil {
		t.Error("expected needs-key error")
	}
}
