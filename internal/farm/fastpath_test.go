package farm

// Fastpath regression for the farm: every worker device runs compiled
// traces, so the pool's concurrency contract must hold with compiled
// traces in the loop, and a farm must be observationally identical to the
// references — the host cipher's bytes and the interpreter's counters.
// Run with `go test -race ./internal/farm/...` (CI does): a compiled
// trace shared between two goroutines would trip the detector on the
// executor's mutable register file.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"cobra/internal/bits"
	"cobra/internal/core"
	"cobra/internal/program"
	"cobra/internal/sim"
)

// TestFarmFastpathDevicesUnderRace hammers a pool from many goroutines
// across both sharded modes, with every ciphertext verified against the
// host reference cipher.
func TestFarmFastpathDevicesUnderRace(t *testing.T) {
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

// TestFarmFastpathMatchesInterpreterFarm runs a deterministic workload,
// in both directions, through a 3-worker farm and holds it to the
// references themselves: every output to the host cipher, and the farm's
// aggregate counters to the interpreter. A fault hook records each
// worker's calls, and each worker's sequence is replayed through
// program.Run on machines of its own, one per direction, so the per-call
// stats equivalence proven in internal/fastpath must survive sharding and
// aggregation. The replay feeds zero blocks: a program's control, and so
// its counters, do not depend on the data (§3.4).
func TestFarmFastpathMatchesInterpreterFarm(t *testing.T) {
	const unroll = 2
	f := openFarm(t, 3, core.Rijndael, core.Config{Unroll: unroll})
	type call struct {
		decrypt bool
		blocks  int
	}
	calls := make([][]call, len(f.pool.workers))
	for _, w := range f.pool.workers {
		w.fault = func(j *job) error {
			dec := j.mode == modeDecECB || j.mode == modeDecCBC
			calls[w.idx] = append(calls[w.idx], call{dec, (len(j.src) + 15) / 16})
			return nil
		}
	}

	ctx := context.Background()
	ref := reference(t, core.Rijndael)
	iv := bytes.Repeat([]byte{0x5c}, 16)
	for i, n := range []int{16, 16 * 7, 16*64 + 5, 16 * 200, 3} {
		msg := testMessage(n)
		got, err := f.EncryptCTR(ctx, iv, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, refCTR(t, ref, iv, msg)) {
			t.Fatalf("call %d: CTR ciphertext differs from the host reference", i)
		}
		if n%16 != 0 {
			continue
		}
		wantECB, wantDec := make([]byte, n), make([]byte, n)
		for off := 0; off < n; off += 16 {
			ref.Encrypt(wantECB[off:], msg[off:])
			ref.Decrypt(wantDec[off:], msg[off:])
		}
		for _, c := range []struct {
			name string
			call func() ([]byte, error)
			want []byte
		}{
			{"ECB", func() ([]byte, error) { return f.EncryptECB(ctx, msg) }, wantECB},
			{"ECB decryption", func() ([]byte, error) { return f.DecryptECB(ctx, msg) }, wantDec},
			{"CBC decryption", func() ([]byte, error) { return f.DecryptCBC(ctx, iv, msg) }, refDecryptCBC(ref, iv, msg)},
		} {
			got, err := c.call()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, c.want) {
				t.Fatalf("call %d: %s differs from the host reference", i, c.name)
			}
		}
	}

	s, err := program.Lookup(string(core.Rijndael))
	if err != nil {
		t.Fatal(err)
	}
	var want sim.Stats
	for _, seq := range calls {
		var progs [2]*program.Program
		var machines [2]*sim.Machine
		for _, c := range seq {
			k, build := 0, s.Build
			if c.decrypt {
				k, build = 1, s.BuildDecrypt
			}
			if machines[k] == nil {
				if progs[k], err = build(key, unroll); err != nil {
					t.Fatal(err)
				}
				if machines[k], err = program.NewMachine(progs[k]); err != nil {
					t.Fatal(err)
				}
				if err := program.Load(machines[k], progs[k]); err != nil {
					t.Fatal(err)
				}
			}
			blocks := make([]bits.Block128, c.blocks)
			st, err := program.Run(machines[k], progs[k], blocks, blocks, program.Opts{})
			if err != nil {
				t.Fatal(err)
			}
			want.Add(st)
		}
	}
	got := f.Report().Stats
	if got != want {
		t.Fatalf("aggregate stats diverge:\nfarm        %+v\ninterpreter %+v", got, want)
	}
	if got.BlocksOut == 0 {
		t.Fatal("no blocks recorded")
	}
}
