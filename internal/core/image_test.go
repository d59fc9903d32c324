package core

// Images: every device loaded from one Image shares its compiled traces,
// one compile per direction, and a Load counts the recorded configuration
// phase without compiling or simulating anything.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
)

// fiveModes runs ECB, CBC and CTR encryption and ECB and CBC decryption
// of msg on d, in that order.
func fiveModes(d *Device, iv, msg []byte) ([5][]byte, error) {
	ctx := context.Background()
	var out [5][]byte
	var err error
	for i, call := range []func() ([]byte, error){
		func() ([]byte, error) { return d.EncryptECB(ctx, msg) },
		func() ([]byte, error) { return d.EncryptCBC(ctx, iv, msg) },
		func() ([]byte, error) { return d.EncryptCTR(ctx, iv, msg) },
		func() ([]byte, error) { return d.DecryptECB(ctx, msg) },
		func() ([]byte, error) { return d.DecryptCBC(ctx, iv, msg) },
	} {
		if out[i], err = call(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// TestImageSharedAcrossDevices loads one image on two devices — the one
// that configured it and a NewDevice — and runs all five modes on both at
// once, three rounds each. Every output must equal a freshly configured
// device's, and across the two devices each direction's trace is
// compiled exactly once: the encryption trace by Configure, the
// decryption trace by whichever device decrypted first, and the other
// device installs each. Under -race this shows the shared traces are only
// read. The configurations are a streaming trace with a batch form
// (rijndael-10) and an iterative one (rc6-2).
func TestImageSharedAcrossDevices(t *testing.T) {
	iv := bytes.Repeat([]byte{0x6c}, 16)
	msg := testCiphertext(11)
	for _, c := range []struct {
		name string
		alg  Algorithm
		cfg  Config
	}{{"rijndael-10", Rijndael, Config{}}, {"rc6-2", RC6, Config{Unroll: 2}}} {
		t.Run(c.name, func(t *testing.T) {
			fresh, err := Configure(c.alg, key, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fiveModes(fresh, iv, msg)
			if err != nil {
				t.Fatal(err)
			}
			a, err := Configure(c.alg, key, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b := NewDevice(a.Image())
			devs := []*Device{a, b}
			errs := make([]error, len(devs))
			var wg sync.WaitGroup
			for i, d := range devs {
				wg.Add(1)
				go func(i int, d *Device) {
					defer wg.Done()
					for round := 0; round < 3; round++ {
						got, err := fiveModes(d, iv, msg)
						if err != nil {
							errs[i] = err
							return
						}
						for m := range got {
							if !bytes.Equal(got[m], want[m]) {
								errs[i] = fmt.Errorf("round %d, mode %d differs from a fresh device's output", round, m)
								return
							}
						}
					}
				}(i, d)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("device %d: %v", i, err)
				}
			}
			var compiles, installs int64
			for _, d := range devs {
				compiles += counterValue(t, d.Obs(), "cobra_device_fastpath_compiles_total")
				installs += counterValue(t, d.Obs(), "cobra_device_fastpath_installs_total")
			}
			if compiles != 2 || installs != 2 {
				t.Errorf("two devices on one image compiled %d and installed %d traces, want 2 and 2 (one compile per direction)", compiles, installs)
			}
			if got := counterValue(t, a.Obs(), "cobra_device_fastpath_compiles_total"); got < 1 {
				t.Error("Configure did not count its encryption compile")
			}
		})
	}
}

// TestLoadAllocBudget pins the host cost of a farm rebind: a Device.Load
// of full-unroll Rijndael, alternating between two keys' images, counts
// the image's recorded configuration phase and installs a fresh executor
// over its trace within 5 heap allocations (3 measured), against
// TestReconfigureAllocBudget's 5,000 for a build and compile. It compiles
// and simulates nothing.
func TestLoadAllocBudget(t *testing.T) {
	const budget = 5
	var imgs [2]*Image
	for i, k := range [][]byte{key, bytes.Repeat([]byte{0x5A}, 16)} {
		d, err := Configure(Rijndael, k, Config{})
		if err != nil {
			t.Fatal(err)
		}
		imgs[i] = d.Image()
	}
	d := NewDevice(imgs[0])
	n := 0
	allocs := testing.AllocsPerRun(10, func() {
		n++
		d.Load(imgs[n%2])
	})
	if got := counterValue(t, d.Obs(), "cobra_device_fastpath_compiles_total"); got != 0 {
		t.Errorf("Load compiled %d traces, want 0", got)
	}
	if allocs > budget {
		t.Errorf("Load: %.0f allocs/op, want <= %d", allocs, budget)
	}
	t.Logf("Load: %.0f allocs/op", allocs)
}

// TestLoadAcrossGeometriesAllocBudget pins the host cost of a rebind that
// changes the array geometry: one device alternates Loads of rijndael-10
// (20 rows) and rc6-20 (40 rows), decrypting a block after each. A device
// holds no machine, so neither the Load nor the decryption engine the next
// decrypt installs tiles an array: each installs an executor over an
// image's trace, within 10 heap allocations for the pair (7 measured)
// once both images have built their decryption code.
func TestLoadAcrossGeometriesAllocBudget(t *testing.T) {
	const budget = 10
	var imgs [2]*Image
	for i, alg := range []Algorithm{Rijndael, RC6} {
		d, err := Configure(alg, key, Config{})
		if err != nil {
			t.Fatal(err)
		}
		imgs[i] = d.Image()
	}
	d := NewDevice(imgs[0])
	ctx := context.Background()
	ct := testCiphertext(1)
	pt := make([]byte, len(ct))
	n := 0
	rebind := func() {
		n++
		d.Load(imgs[n%2])
		if _, err := d.DecryptECBInto(ctx, pt, ct); err != nil {
			t.Fatal(err)
		}
	}
	// Each image builds its decryption code on its first decrypt.
	rebind()
	rebind()
	allocs := testing.AllocsPerRun(10, rebind)
	if got := d.Geometry().Rows; got != 20 && got != 40 {
		t.Fatalf("device holds %d rows, want 20 or 40", got)
	}
	if allocs > budget {
		t.Errorf("cross-geometry Load and decrypt: %.0f allocs/op, want <= %d", allocs, budget)
	}
	t.Logf("cross-geometry Load and decrypt: %.0f allocs/op", allocs)
}
