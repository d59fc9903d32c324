package core

// The decryption engine: built by the first decrypt call the way
// configuration builds the encryption engine, routed by the same function,
// and counted in the same device counters.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"cobra/internal/bits"
	"cobra/internal/cipher"
	"cobra/internal/obs"
	"cobra/internal/program"
	"cobra/internal/sim"
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
// device (which decrypts at Serpent's one mapped depth). On the fastpath
// and on the forced interpreter, ECB and CBC decryption must match the
// host reference, the two engines must report identical per-call counters
// at 1, 8, 24 and 48 blocks, and each device must count every decrypted
// block under its own engine.
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
			fast, err := Configure(c.alg, key, Config{Unroll: c.unroll})
			if err != nil {
				t.Fatal(err)
			}
			interp, err := Configure(c.alg, key, Config{Unroll: c.unroll, Interpreter: true})
			if err != nil {
				t.Fatal(err)
			}
			devices := []*Device{fast, interp}
			blocks := 0
			for _, n := range []int{1, 8, 24, 48} {
				ct := testCiphertext(n)
				want := make([]byte, len(ct))
				for i := 0; i < len(ct); i += 16 {
					ref.Decrypt(want[i:], ct[i:])
				}
				var st [2]sim.Stats
				for i, d := range devices {
					got := make([]byte, len(ct))
					if st[i], err = d.DecryptECBInto(ctx, got, ct); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%d blocks, interpreter=%v: ECB plaintext differs from the host reference", n, d.img.cfg.Interpreter)
					}
				}
				if st[0] != st[1] {
					t.Errorf("%d blocks: fastpath counters %+v, interpreter %+v", n, st[0], st[1])
				}
				blocks += n
			}
			ct := testCiphertext(5)
			want := refDecryptCBC(ref, iv, ct)
			for _, d := range devices {
				got, err := d.DecryptCBC(ctx, iv, ct)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("interpreter=%v: CBC plaintext differs from the host reference", d.img.cfg.Interpreter)
				}
			}
			blocks += 5

			if fast.dec.fast == nil {
				t.Fatalf("decryptor %s did not compile: %v", fast.dec.prog.Name, fast.dec.err)
			}
			for _, e := range []struct {
				d      *Device
				engine string
			}{{fast, "fastpath"}, {interp, "interpreter"}} {
				if got := counterValue(t, e.d.Obs(), "cobra_device_engine_blocks_total", obs.L("engine", e.engine)); got != int64(blocks) {
					t.Errorf("%s engine blocks = %d, want all %d decrypted blocks", e.engine, got, blocks)
				}
				if got := e.d.Report().Stats.BlocksOut; got != blocks {
					t.Errorf("%s device: Report BlocksOut = %d, want %d", e.engine, got, blocks)
				}
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
	s, err := program.Lookup("serpent")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.BuildDecrypt(key, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := program.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := program.Load(m, p); err != nil {
		t.Fatal(err)
	}
	blocks := make([]bits.Block128, 8)
	for i := range blocks {
		blocks[i] = bits.LoadBlock128(ct[16*i:])
	}
	want, err := program.Run(m, p, blocks, blocks, program.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Report().Stats; got != want {
		t.Errorf("serpent-32 device Report %+v, serpent-dec-1 run %+v", got, want)
	}
}
