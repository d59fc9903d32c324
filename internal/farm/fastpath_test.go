package farm

// Fastpath regression for the farm: worker devices default to the
// trace-compiled executor (core.Config{}.Interpreter == false), so the
// pool's concurrency contract must hold with compiled traces in the
// loop, and a fastpath farm must be observationally identical to an
// interpreter farm — same bytes, same aggregate counters. Run with
// `go test -race ./internal/farm/...` (CI does): a compiled trace shared
// between two goroutines would trip the detector on the executor's
// mutable register file.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"cobra/internal/core"
)

// TestFarmFastpathDevicesUnderRace hammers a fastpath-device pool from
// many goroutines across both sharded modes, with every ciphertext
// verified against the host reference cipher. The probe device pins that
// the farm's configuration actually compiles a trace — if compilation
// ever started refusing, this test would silently regress to exercising
// the interpreter.
func TestFarmFastpathDevicesUnderRace(t *testing.T) {
	probe, err := core.Configure(core.RC6, key, core.Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !probe.UsesFastpath() {
		t.Fatalf("farm worker config does not compile a trace: %v", probe.FastpathErr())
	}
	f := openFarm(t, 3, core.RC6, core.Config{Unroll: 2})
	ref := reference(t, core.RC6)

	const callers = 6
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			iv := bytes.Repeat([]byte{byte(0x30 + g)}, 16)
			for i := 0; i < 3; i++ {
				msg := testMessage(16*48 + g)
				gotCTR, err := f.EncryptCTR(context.Background(), iv, msg)
				if err != nil {
					errc <- err
					return
				}
				if want := refCTR(t, ref, iv, msg); !bytes.Equal(gotCTR, want) {
					errc <- errors.New("fastpath farm: CTR ciphertext corrupted under concurrency")
					return
				}
				ecbMsg := msg[:16*48]
				gotECB, err := f.EncryptECB(context.Background(), ecbMsg)
				if err != nil {
					errc <- err
					return
				}
				want := make([]byte, len(ecbMsg))
				for off := 0; off < len(ecbMsg); off += 16 {
					ref.Encrypt(want[off:], ecbMsg[off:])
				}
				if !bytes.Equal(gotECB, want) {
					errc <- errors.New("fastpath farm: ECB ciphertext corrupted under concurrency")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestFarmFastpathMatchesInterpreterFarm runs the same deterministic
// workload, in both directions, through a fastpath farm and a
// forced-interpreter farm and requires identical output and identical
// aggregate counters. A single caller keeps the round-robin shard
// assignment deterministic, so each worker pair sees the same call
// sequence and the per-call stats equivalence proven in internal/fastpath
// must survive aggregation.
func TestFarmFastpathMatchesInterpreterFarm(t *testing.T) {
	fast := openFarm(t, 3, core.Rijndael, core.Config{Unroll: 2})
	interp := openFarm(t, 3, core.Rijndael, core.Config{Unroll: 2, Interpreter: true})

	iv := bytes.Repeat([]byte{0x5c}, 16)
	for i, n := range []int{16, 16 * 7, 16*64 + 5, 16 * 200, 3} {
		msg := testMessage(n)
		wantCTR, err := interp.EncryptCTR(context.Background(), iv, msg)
		if err != nil {
			t.Fatal(err)
		}
		gotCTR, err := fast.EncryptCTR(context.Background(), iv, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCTR, wantCTR) {
			t.Fatalf("call %d: CTR ciphertext diverges between farm engines", i)
		}
		if n%16 == 0 {
			wantECB, err := interp.EncryptECB(context.Background(), msg)
			if err != nil {
				t.Fatal(err)
			}
			gotECB, err := fast.EncryptECB(context.Background(), msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotECB, wantECB) {
				t.Fatalf("call %d: ECB ciphertext diverges between farm engines", i)
			}
			for _, dec := range []struct {
				name string
				call func(f *Farm) ([]byte, error)
			}{
				{"ECB", func(f *Farm) ([]byte, error) { return f.DecryptECB(context.Background(), msg) }},
				{"CBC", func(f *Farm) ([]byte, error) { return f.DecryptCBC(context.Background(), iv, msg) }},
			} {
				want, err := dec.call(interp)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dec.call(fast)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("call %d: %s plaintext diverges between farm engines", i, dec.name)
				}
			}
		}
	}
	fr, ir := fast.Report(), interp.Report()
	if fr.Stats != ir.Stats {
		t.Fatalf("aggregate stats diverge:\nfastpath    %+v\ninterpreter %+v", fr.Stats, ir.Stats)
	}
	if fr.Stats.BlocksOut == 0 {
		t.Fatal("no blocks recorded")
	}
}
