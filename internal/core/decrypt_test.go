package core

// The decryption engine: built by the first decrypt call the way
// configuration builds the encryption engine, routed by the same function,
// and counted in the same device counters.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"cobra/internal/cipher"
	"cobra/internal/obs"
)

// testCiphertext is n deterministic 16-byte blocks.
func testCiphertext(n int) []byte {
	b := make([]byte, 16*n)
	for i := range b {
		b[i] = byte(i*29 + 7)
	}
	return b
}

// refDecryptCBC is CBC decryption over the host reference cipher.
func refDecryptCBC(ref cipher.Block, iv, src []byte) []byte {
	out := make([]byte, len(src))
	prev := iv
	for i := 0; i < len(src); i += 16 {
		ref.Decrypt(out[i:], src[i:])
		for j := 0; j < 16; j++ {
			out[i+j] ^= prev[j]
		}
		prev = src[i : i+16]
	}
	return out
}

// TestDecryptMatchesReferenceOnBothEngines covers every 16-byte cipher at
// every depth its registry entry maps a decryptor at, plus a serpent-32
// device (which decrypts at Serpent's one mapped depth). The device's
// decryption trace and the interpreter running the same decryption
// program must both match the host reference, and report identical
// per-call counters, on ECB calls of 1, 8, 24 and 48 blocks and on a
// 5-block CBC message; the device counts every decrypted block under
// engine="fastpath".
func TestDecryptMatchesReferenceOnBothEngines(t *testing.T) {
	type tc struct {
		alg    Algorithm
		unroll int
	}
	var cases []tc
	for _, alg := range []Algorithm{RC6, Rijndael, Serpent} {
		s, err := alg.spec()
		if err != nil {
			t.Fatal(err)
		}
		for _, hw := range s.DecryptDepths {
			cases = append(cases, tc{alg, hw})
		}
	}
	cases = append(cases, tc{Serpent, 32})

	ctx := context.Background()
	iv := bytes.Repeat([]byte{0xc3}, 16)
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s-%d", c.alg, c.unroll), func(t *testing.T) {
			ref := hostRef(t, c.alg, key)
			d, err := Configure(c.alg, key, Config{Unroll: c.unroll})
			if err != nil {
				t.Fatal(err)
			}
			var interp *interpreter
			blocks := 0
			for _, n := range []int{1, 8, 24, 48} {
				ct := testCiphertext(n)
				want := make([]byte, len(ct))
				for i := 0; i < len(ct); i += 16 {
					ref.Decrypt(want[i:], ct[i:])
				}
				got := make([]byte, len(ct))
				st, err := d.DecryptECBInto(ctx, got, ct)
				if err != nil {
					t.Fatal(err)
				}
				if interp == nil {
					interp = newInterpreter(t, c.alg, key, d.dec.prog.HWRounds, true)
				}
				igot, ist := interp.ecb(t, ct)
				if !bytes.Equal(got, want) {
					t.Fatalf("%d blocks: the trace's ECB plaintext differs from the host reference", n)
				}
				if !bytes.Equal(igot, want) {
					t.Fatalf("%d blocks: the interpreter's ECB plaintext differs from the host reference", n)
				}
				if st != ist {
					t.Errorf("%d blocks: fastpath counters %+v, interpreter %+v", n, st, ist)
				}
				blocks += n
			}
			ct := testCiphertext(5)
			before := d.Report().Stats
			got, err := d.DecryptCBC(ctx, iv, ct)
			if err != nil {
				t.Fatal(err)
			}
			if want := refDecryptCBC(ref, iv, ct); !bytes.Equal(got, want) {
				t.Fatal("CBC plaintext differs from the host reference")
			}
			if _, ist := interp.ecb(t, ct); d.Report().Stats.Delta(before) != ist {
				t.Errorf("CBC: fastpath counters %+v, interpreter %+v",
					d.Report().Stats.Delta(before), ist)
			}
			blocks += 5

			if got := counterValue(t, d.Obs(), "cobra_device_engine_blocks_total", obs.L("engine", "fastpath")); got != int64(blocks) {
				t.Errorf("fastpath engine blocks = %d, want all %d decrypted blocks", got, blocks)
			}
			if got := d.Report().Stats.BlocksOut; got != blocks {
				t.Errorf("Report BlocksOut = %d, want %d", got, blocks)
			}
		})
	}
}

// TestDecryptCountedLikeEncryption pins the single bookkeeping across
// directions: after N encrypted and M decrypted blocks the Report holds
// N+M (building the decryption engine neither resets the view nor counts
// an invalidation), the registry agrees, each direction compiled one
// trace, and a reconfiguration drops both.
func TestDecryptCountedLikeEncryption(t *testing.T) {
	const n, m = 6, 4
	ctx := context.Background()
	d, err := Configure(Rijndael, key, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.EncryptECB(ctx, testCiphertext(n)); err != nil {
		t.Fatal(err)
	}
	enc := d.Report().Stats
	if _, err := d.DecryptECB(ctx, testCiphertext(m)); err != nil {
		t.Fatal(err)
	}
	r := d.Report()
	if r.Stats.BlocksOut != n+m {
		t.Errorf("BlocksOut = %d after %d encrypted and %d decrypted blocks, want %d", r.Stats.BlocksOut, n, m, n+m)
	}
	if r.Stats.Cycles <= enc.Cycles {
		t.Errorf("decryption added no cycles: %d before, %d after", enc.Cycles, r.Stats.Cycles)
	}
	reg := d.Obs()
	if got := counterValue(t, reg, "cobra_device_cycles_total"); got != int64(r.Stats.Cycles) {
		t.Errorf("registry cycles %d != report %d", got, r.Stats.Cycles)
	}
	if got := counterValue(t, reg, "cobra_device_fastpath_compiles_total"); got != 2 {
		t.Errorf("compiles = %d, want one per direction", got)
	}
	if got := counterValue(t, reg, "cobra_device_fastpath_invalidations_total"); got != 0 {
		t.Errorf("building the decryption engine counted %d invalidations", got)
	}
	if err := d.Reconfigure(Rijndael, key, Config{}); err != nil {
		t.Fatal(err)
	}
	if d.dec != nil {
		t.Error("Reconfigure kept the decryption engine")
	}
	if got := counterValue(t, reg, "cobra_device_fastpath_invalidations_total"); got != 2 {
		t.Errorf("Reconfigure invalidated %d traces, want both directions'", got)
	}
}

// TestDecryptDepth pins where the decryption engine runs: at the device's
// own unroll when the registry maps a decryptor there, else at the deepest
// mapped depth below it. A serpent-32 device therefore decrypts on
// serpent-dec-1, and its Report carries that program's cycles.
func TestDecryptDepth(t *testing.T) {
	ct := testCiphertext(8)
	var d *Device
	for _, c := range []struct {
		alg    Algorithm
		unroll int
		want   string
	}{
		{Rijndael, 5, "rijndael-dec-5"},
		{RC6, 0, "rc6-dec-20"},
		{Serpent, 8, "serpent-dec-1"},
		{Serpent, 0, "serpent-dec-1"},
	} {
		var err error
		if d, err = Configure(c.alg, key, Config{Unroll: c.unroll}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.DecryptECB(context.Background(), ct); err != nil {
			t.Fatal(err)
		}
		if d.dec.prog.Name != c.want {
			t.Errorf("%s-%d device decrypted on %s, want %s", c.alg, d.Unroll(), d.dec.prog.Name, c.want)
		}
	}
	// d is the last case's serpent-32 device: its Report must hold exactly
	// what the serpent-dec-1 program spends on the same blocks.
	if _, want := newInterpreter(t, Serpent, key, 1, true).ecb(t, ct); d.Report().Stats != want {
		t.Errorf("serpent-32 device Report %+v, serpent-dec-1 run %+v", d.Report().Stats, want)
	}
}
