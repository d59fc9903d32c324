package fastpath_test

import (
	"testing"

	"cobra/internal/bits"
	"cobra/internal/fastpath"
	"cobra/internal/program"
)

// FuzzFastpathVsInterpreter feeds fuzzer-chosen keys and plaintext through
// both engines over a fixed cipher set and requires identical ciphertext
// and counters. Trace compilation must succeed for every key: the control
// schedule is key-independent (keys only change eRAM contents), so a key
// that broke compilation — or diverged — would falsify the steady-state
// proof. Selectors 0-7 are partial unrolls; 8-12 are full-unroll streaming
// programs, whose calls run on the batch form (tea-32 has none and runs
// its cycles on the whole array, the control). Run via
// `go test -fuzz=FuzzFastpathVsInterpreter`; CI runs a short smoke.
func FuzzFastpathVsInterpreter(f *testing.F) {
	f.Add(uint8(0), []byte("an-example-key-1"), []byte("attack at dawn!!attack at dusk!!"))
	f.Add(uint8(1), make([]byte, 16), []byte{})
	f.Add(uint8(2), []byte{0xff}, []byte("0123456789abcdef"))
	f.Add(uint8(3), []byte("rc5-key-material"), []byte("two 64-bit lanes per superblock!"))
	f.Add(uint8(4), []byte("tea-key-16-bytes"), []byte("big-endian words"))
	f.Add(uint8(5), []byte("simon64/128-key!"), []byte("lik eund mapping"))
	f.Add(uint8(6), []byte("blowfish-pi-key!"), []byte("feistel+sboxes!!"))
	f.Add(uint8(7), []byte("8bytekey"), []byte("partial"))
	f.Fuzz(func(t *testing.T, sel uint8, keyData, ptData []byte) {
		key := make([]byte, 16)
		copy(key, keyData)

		var p *program.Program
		var err error
		switch sel % 13 {
		case 0:
			p, err = program.BuildRC6(key, 2, 20)
		case 1:
			p, err = program.BuildRijndael(key, 2)
		case 2:
			p, err = program.BuildSerpent(key, 4)
		case 3:
			p, err = program.BuildRC5(key, 2, 12)
		case 4:
			p, err = program.BuildTEA(key, 2)
		case 5:
			p, err = program.BuildSIMON(key, 4)
		case 6:
			p, err = program.BuildBlowfish(key, 1)
		case 7:
			p, err = program.BuildDES(key[:8])
		case 8:
			p, err = program.BuildRijndael(key, 10)
		case 9:
			p, err = program.BuildRC6(key, 20, 20)
		case 10:
			p, err = program.BuildRC5(key, 12, 12)
		case 11:
			p, err = program.BuildSIMON(key, 44)
		default:
			p, err = program.BuildTEA(key, 32)
		}
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		ex, err := p.Compile()
		if err != nil {
			t.Fatalf("trace compilation must be key-independent: %v", err)
		}
		m, err := program.NewMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := program.Load(m, p); err != nil {
			t.Fatal(err)
		}

		// Full blocks only; cap the batch so a large fuzz input doesn't
		// stall the interpreter side. A streaming call may run past its
		// pipeline depth, so fill, steady state and drain all occur, and
		// past two batches of the batch form.
		maxBlocks := 8
		if p.Streaming {
			maxBlocks = max(p.PipelineDepth, 2*fastpath.BatchBlocks) + 3
		}
		n := len(ptData) / 16
		if n > maxBlocks {
			n = maxBlocks
		}
		if n == 0 {
			ptData = append(ptData, make([]byte, 16)...)
			n = 1
		}
		in := make([]bits.Block128, n)
		for i := range in {
			in[i] = bits.LoadBlock128(ptData[16*i:])
		}

		// Two calls so the fuzzer also exercises the dirty-resume paths.
		for call := 0; call < 2; call++ {
			want := make([]bits.Block128, n)
			wantStats, err := program.Run(m, p, want, in, program.Opts{})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]bits.Block128, n)
			gotStats, err := ex.EncryptInto(got, in)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("call %d block %d: fastpath %08x != interpreter %08x", call, i, got[i], want[i])
				}
			}
			if gotStats != wantStats {
				t.Fatalf("call %d: stats %+v != %+v", call, gotStats, wantStats)
			}
		}
	})
}
