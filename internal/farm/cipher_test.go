package farm

import (
	"bytes"
	"context"
	"testing"

	"cobra/internal/core"
)

// TestCipherBackendSwap is the unified-API acceptance test: the same
// workload driven purely through core.Cipher produces byte-identical
// ciphertext on a single device and on a farm, for every mode the
// interface carries — including the feedback mode CBC, which the farm
// serializes onto one worker.
func TestCipherBackendSwap(t *testing.T) {
	msg := testMessage(16 * 37)
	iv := bytes.Repeat([]byte{0x3C}, 16)

	type result struct{ ecb, cbc, ctr, ptr, pecb, pcbc []byte }
	run := func(t *testing.T, c core.Cipher) result {
		ctx := context.Background()
		if c.BlockSize() != 16 {
			t.Fatalf("BlockSize = %d, want 16", c.BlockSize())
		}
		if c.Algorithm() != core.Rijndael {
			t.Fatalf("Algorithm = %s, want rijndael", c.Algorithm())
		}
		ecb, err := c.EncryptECB(ctx, msg)
		if err != nil {
			t.Fatal(err)
		}
		cbc, err := c.EncryptCBC(ctx, iv, msg)
		if err != nil {
			t.Fatal(err)
		}
		ctr, err := c.EncryptCTR(ctx, iv, msg)
		if err != nil {
			t.Fatal(err)
		}
		ptr, err := c.DecryptCTR(ctx, iv, ctr)
		if err != nil {
			t.Fatal(err)
		}
		pecb, err := c.DecryptECB(ctx, ecb)
		if err != nil {
			t.Fatal(err)
		}
		pcbc, err := c.DecryptCBC(ctx, iv, cbc)
		if err != nil {
			t.Fatal(err)
		}
		if s := c.Summary(); s.Stats.BlocksOut == 0 {
			t.Errorf("summary counted no blocks: %+v", s)
		}
		c.ResetStats()
		if s := c.Summary(); s.Stats.BlocksOut != 0 {
			t.Errorf("ResetStats through the interface left %d blocks", s.Stats.BlocksOut)
		}
		return result{ecb, cbc, ctr, ptr, pecb, pcbc}
	}

	dev, err := core.Configure(core.Rijndael, key, core.Config{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := openFarm(t, 3, core.Rijndael, core.Config{Unroll: 1})

	want := run(t, dev)
	got := run(t, f)

	if !bytes.Equal(got.ecb, want.ecb) {
		t.Error("ECB diverges between backends")
	}
	if !bytes.Equal(got.cbc, want.cbc) {
		t.Error("CBC diverges between backends")
	}
	if !bytes.Equal(got.ctr, want.ctr) {
		t.Error("CTR diverges between backends")
	}
	if !bytes.Equal(got.ptr, msg) || !bytes.Equal(want.ptr, msg) {
		t.Error("CTR round trip failed")
	}
	if !bytes.Equal(got.pecb, msg) || !bytes.Equal(want.pecb, msg) {
		t.Error("ECB round trip failed")
	}
	if !bytes.Equal(got.pcbc, msg) || !bytes.Equal(want.pcbc, msg) {
		t.Error("CBC round trip failed")
	}
	if db, fb := dev.Summary().Backend, f.Summary().Backend; db != "device" || fb != "farm" {
		t.Errorf("backends identify as %q/%q, want device/farm", db, fb)
	}
}

// TestFarmCBCMatchesDevice covers the farm's feedback-mode path directly:
// one serialized job, correct chaining across the whole (multi-shard-
// sized) message, and the mode series counted.
func TestFarmCBCMatchesDevice(t *testing.T) {
	msg := testMessage(16 * 64)
	iv := bytes.Repeat([]byte{7}, 16)
	d, err := core.Configure(core.Rijndael, key, core.Config{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.EncryptCBC(context.Background(), iv, msg)
	if err != nil {
		t.Fatal(err)
	}
	f := openFarm(t, 4, core.Rijndael, core.Config{Unroll: 1})
	got, err := f.EncryptCBC(context.Background(), iv, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("farm CBC diverges from single-device CBC")
	}
	if _, err := f.EncryptCBC(context.Background(), iv[:4], msg); err == nil {
		t.Error("short IV accepted")
	}
	if _, err := f.EncryptCBC(context.Background(), iv, msg[:17]); err == nil {
		t.Error("partial block accepted")
	}
}

// TestDeviceAndOneWorkerFarmCountAlike drives the same mixed-direction
// calls through a device and a one-worker farm: the farm's tenant
// accounting sums the per-call counters the device folds into its own, so
// both Summaries must report the same Stats. Every message fits one shard,
// so each farm call is one device call.
func TestDeviceAndOneWorkerFarmCountAlike(t *testing.T) {
	msg := testMessage(16 * 37)
	iv := bytes.Repeat([]byte{0x6d}, 16)
	calls := func(t *testing.T, c core.Cipher) {
		ctx := context.Background()
		ecb, err := c.EncryptECB(ctx, msg)
		if err != nil {
			t.Fatal(err)
		}
		cbc, err := c.EncryptCBC(ctx, iv, msg[:16*5])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DecryptECB(ctx, ecb); err != nil {
			t.Fatal(err)
		}
		if _, err := c.EncryptCTR(ctx, iv, msg[:100]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.DecryptCBC(ctx, iv, cbc); err != nil {
			t.Fatal(err)
		}
	}
	dev, err := core.Configure(core.Rijndael, key, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := openFarm(t, 1, core.Rijndael, core.Config{})
	calls(t, dev)
	calls(t, f)
	ds, fs := dev.Summary().Stats, f.Summary().Stats
	if ds != fs {
		t.Fatalf("device and one-worker farm diverge:\ndevice %+v\nfarm   %+v", ds, fs)
	}
	if want := 37 + 5 + 37 + 7 + 5; ds.BlocksOut != want {
		t.Errorf("BlocksOut = %d, want %d across both directions", ds.BlocksOut, want)
	}
}
