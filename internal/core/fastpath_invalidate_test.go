package core

// Invalidation regression for the trace-compiled executor: a compiled
// trace encodes one program's configuration schedule and eRAM-resolved
// constants, so any microcode reload — rekey, algorithm switch, geometry
// change — must replace it. A stale trace would keep emitting the OLD
// key's ciphertext while reporting success; these tests rekey mid-batch
// and check the bytes against the host reference of the NEW key.

import (
	"bytes"
	"context"
	"testing"

	"cobra/internal/cipher"
)

func hostECB(t *testing.T, blk cipher.Block, src []byte) []byte {
	t.Helper()
	out := make([]byte, len(src))
	for off := 0; off < len(src); off += 16 {
		blk.Encrypt(out[off:], src[off:])
	}
	return out
}

// TestReconfigureMidBatchInvalidatesTrace encrypts half a message, rekeys
// the device to a program of the same geometry, and encrypts the rest. The second half must come from the new key's schedule: if the
// reload left the old compiled trace wired in, the bytes would still match
// the old key.
func TestReconfigureMidBatchInvalidatesTrace(t *testing.T) {
	key2 := bytes.Repeat([]byte{0xd1, 0x4e}, 8)
	msg := make([]byte, 16*12)
	for i := range msg {
		msg[i] = byte(i * 11)
	}
	ref1, err := cipher.NewRC6(key)
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := cipher.NewRC6(key2)
	if err != nil {
		t.Fatal(err)
	}

	d, err := Configure(RC6, key, Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	got1, err := d.EncryptECB(context.Background(), msg[:16*6])
	if err != nil {
		t.Fatal(err)
	}
	if want := hostECB(t, ref1, msg[:16*6]); !bytes.Equal(got1, want) {
		t.Fatalf("first half under key 1: got %x, want %x", got1, want)
	}

	// Same algorithm, same unroll → same geometry.
	if err := d.Reconfigure(RC6, key2, Config{Unroll: 2}); err != nil {
		t.Fatal(err)
	}
	got2, err := d.EncryptECB(context.Background(), msg[16*6:])
	if err != nil {
		t.Fatal(err)
	}
	if stale := hostECB(t, ref1, msg[16*6:]); bytes.Equal(got2, stale) {
		t.Fatal("rekeyed device reproduced the OLD key's ciphertext: stale compiled trace survived the reload")
	}
	if want := hostECB(t, ref2, msg[16*6:]); !bytes.Equal(got2, want) {
		t.Fatalf("second half under key 2: got %x, want %x", got2, want)
	}
	// The reload also restarts the counter chain.
	if st := d.Report().Stats; st.BlocksOut != 6 {
		t.Fatalf("stats not reset by reload: %+v", st)
	}
}

// TestReconfigureAcrossGeometriesInvalidatesTrace switches between array
// geometries and back, checking ciphertext against each algorithm's host
// reference at every hop.
func TestReconfigureAcrossGeometriesInvalidatesTrace(t *testing.T) {
	msg := make([]byte, 16*5)
	for i := range msg {
		msg[i] = byte(0xe7 - i)
	}
	d, err := Configure(RC6, key, Config{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, hop := range []struct {
		alg Algorithm
		cfg Config
	}{
		{Serpent, Config{}},
		{Rijndael, Config{Unroll: 10}},
		{RC6, Config{Unroll: 1}},
	} {
		if err := d.Reconfigure(hop.alg, key, hop.cfg); err != nil {
			t.Fatalf("%s: %v", hop.alg, err)
		}
		got, err := d.EncryptECB(context.Background(), msg)
		if err != nil {
			t.Fatalf("%s: %v", hop.alg, err)
		}
		if want := hostECB(t, hostRef(t, hop.alg, key), msg); !bytes.Equal(got, want) {
			t.Fatalf("%s: ciphertext does not match host reference after geometry change", hop.alg)
		}
	}
}
