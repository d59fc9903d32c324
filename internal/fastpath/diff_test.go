// Package fastpath_test is the differential harness proving the
// trace-compiled executor equivalent to the cycle-accurate interpreter:
// for every built-in program — each builder at every unroll depth and
// window — randomized batches run through both engines must produce
// identical ciphertext and identical sim.Stats counters, including across
// dirty resumes and reconfiguration.
package fastpath_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cobra/internal/bits"
	"cobra/internal/core"
	"cobra/internal/fastpath"
	"cobra/internal/program"
	"cobra/internal/sim"
)

// builderCase is one built-in program configuration.
type builderCase struct {
	name  string
	build func() (*program.Program, error)
}

// allBuilders enumerates every builder × depth × window combination the
// repository ships: every registered cipher at every legal unroll depth in
// both directions, the windowed Serpent variants at w = 1..16, and GOST.
// Every one of them must trace-compile.
func allBuilders() []builderCase {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
	}
	key32 := make([]byte, 32)
	for i := range key32 {
		key32[i] = byte(0xa5 ^ i)
	}
	var cases []builderCase
	add := func(name string, build func() (*program.Program, error)) {
		cases = append(cases, builderCase{name, build})
	}
	for _, s := range program.Specs() {
		for _, hw := range s.Depths {
			add(fmt.Sprintf("%s-%d", s.Name, hw), func() (*program.Program, error) {
				return s.Build(key, hw)
			})
		}
		for _, hw := range s.DecryptDepths {
			name := fmt.Sprintf("%s-dec-%d", s.Name, hw)
			if len(s.DecryptDepths) < len(s.Depths) {
				name = s.Name + "-dec" // one decryptor for every depth
			}
			add(name, func() (*program.Program, error) { return s.BuildDecrypt(key, hw) })
		}
	}
	for w := 1; w <= 16; w++ {
		add(fmt.Sprintf("serpent-w%d", w), func() (*program.Program, error) {
			return program.BuildSerpentWindowed(key, w)
		})
	}
	add("gost", func() (*program.Program, error) { return program.BuildGOST(key32) })
	return cases
}

func randomBlocks(rng *rand.Rand, n int) []bits.Block128 {
	out := make([]bits.Block128, n)
	for i := range out {
		for c := 0; c < 4; c++ {
			out[i][c] = rng.Uint32()
		}
	}
	return out
}

// TestDifferentialAllBuilders drives randomized batches through the
// compiled executor and the interpreter for every built-in configuration
// and requires identical ciphertext and identical per-call counters. The
// batch sizes deliberately mix single blocks with longer runs so iterative
// programs resume mid-epilogue and streaming programs hit the
// reload-per-call path and mid-period resume points. Streaming programs
// then take calls that straddle their pipeline depth (fill and drain
// overlapping, meeting, and separated by a steady state in which every
// stage holds a block) and, on a batch form, calls that straddle one and
// two batches.
func TestDifferentialAllBuilders(t *testing.T) {
	for _, c := range allBuilders() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			p, err := c.build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			ex, err := p.Compile()
			if err != nil {
				t.Fatalf("trace compilation must succeed for every built-in program: %v", err)
			}
			m, err := program.NewMachine(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := program.Load(m, p); err != nil {
				t.Fatal(err)
			}

			sizes := []int{1, 3, 1, 7, 2, 5, 1, 1, 4}
			if d, b := p.PipelineDepth, fastpath.BatchBlocks; p.Streaming {
				sizes = append(sizes, d-1, d, d+1, d+2, 2*d+3, b-1, b, b+1, 2*b+d+3)
			}
			rng := rand.New(rand.NewSource(0xc0b2a))
			for call, n := range sizes {
				in := randomBlocks(rng, n)
				want := make([]bits.Block128, n)
				wantStats, err := program.Run(m, p, want, in, program.Opts{})
				if err != nil {
					t.Fatalf("call %d: interpreter: %v", call, err)
				}
				got := make([]bits.Block128, n)
				gotStats, err := ex.EncryptInto(got, in)
				if err != nil {
					t.Fatalf("call %d: fastpath: %v", call, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("call %d block %d: fastpath %08x != interpreter %08x",
							call, i, got[i], want[i])
					}
				}
				if gotStats != wantStats {
					t.Fatalf("call %d: fastpath stats %+v != interpreter %+v", call, gotStats, wantStats)
				}
			}
		})
	}
}

// sharedLane is one executor over a shared trace, checked call by call
// against an interpreter machine of its own.
type sharedLane struct {
	p  *program.Program
	m  *sim.Machine
	ex *fastpath.Exec
}

// call runs n random blocks through both engines and reports the first
// difference in output or counters.
func (l *sharedLane) call(rng *rand.Rand, n int) error {
	in := randomBlocks(rng, n)
	want := make([]bits.Block128, n)
	wantStats, err := program.Run(l.m, l.p, want, in, program.Opts{})
	if err != nil {
		return fmt.Errorf("interpreter: %v", err)
	}
	got := make([]bits.Block128, n)
	gotStats, err := l.ex.EncryptInto(got, in)
	if err != nil {
		return fmt.Errorf("fastpath: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%d-block call, block %d: fastpath %08x != interpreter %08x", n, i, got[i], want[i])
		}
	}
	if gotStats != wantStats {
		return fmt.Errorf("%d-block call: fastpath stats %+v != interpreter %+v", n, gotStats, wantStats)
	}
	return nil
}

// TestDifferentialSharedTrace runs two executors over one compiled trace
// — the one Compile returned and a Fresh one — each against its own
// interpreter machine. Their calls first interleave with different block
// counts, so one is dirty (or mid-period) whenever the other starts a
// call, and then run on two goroutines at once. Every call must match its
// interpreter exactly: neither executor's dirty flag, resume point,
// registers, staging buffer or batch buffers show in the other's output,
// and under -race the concurrent half shows that the shared trace is only
// read. The programs are streaming traces with a batch form (rijndael-10,
// rc6-20), a streaming trace run on the whole array (tea-32) and an
// iterative one (rc6-2), whose calls leave the executor dirty to resume on
// the next.
// The streaming traces emit twice per period, so their odd-length calls
// stop mid-period; no iterative builtin emits more than once per period,
// so rc6-2's calls stop at a period's end.
func TestDifferentialSharedTrace(t *testing.T) {
	key := []byte("shared-trace-key")
	for _, c := range []builderCase{
		{"rijndael-10", func() (*program.Program, error) { return program.BuildRijndael(key, 10) }},
		{"rc6-20", func() (*program.Program, error) { return program.BuildRC6(key, 20, 20) }},
		{"tea-32", func() (*program.Program, error) { return program.BuildTEA(key, 32) }},
		{"rc6-2", func() (*program.Program, error) { return program.BuildRC6(key, 2, 20) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			ex, err := p.Compile()
			if err != nil {
				t.Fatal(err)
			}
			var lanes [2]*sharedLane
			for i, x := range []*fastpath.Exec{ex, ex.Fresh()} {
				m, err := program.NewMachine(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := program.Load(m, p); err != nil {
					t.Fatal(err)
				}
				lanes[i] = &sharedLane{p: p, m: m, ex: x}
			}
			sizes := [2][]int{{1, 3, 1, 7, 2, 5}, {2, 1, 5, 1, 4, 3}}
			if d, b := p.PipelineDepth, fastpath.BatchBlocks; p.Streaming {
				sizes[0] = append(sizes[0], d+1, 1, 2*d+3, b+1)
				sizes[1] = append(sizes[1], 1, d-1, d, 2*b+3)
			}
			rng := rand.New(rand.NewSource(0x5a4ed))
			for call := range sizes[0] {
				for i, l := range lanes {
					if err := l.call(rng, sizes[i][call]); err != nil {
						t.Fatalf("interleaved call %d on executor %d: %v", call, i, err)
					}
				}
			}
			var wg sync.WaitGroup
			errs := make([]error, len(lanes))
			for i, l := range lanes {
				wg.Add(1)
				go func(i int, l *sharedLane) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)))
					for _, n := range sizes[i] {
						if errs[i] = l.call(rng, n); errs[i] != nil {
							return
						}
					}
				}(i, l)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("concurrent calls on executor %d: %v", i, err)
				}
			}
		})
	}
}

// TestDifferentialAliasing verifies the executor honors EncryptInto's
// aliasing contract (dst may be the same slice as blocks), which the bulk
// byte paths rely on for in-place conversion, on an iterative program and
// on a streaming one's batch form, over more than one batch.
func TestDifferentialAliasing(t *testing.T) {
	key := make([]byte, 16)
	for _, build := range []func() (*program.Program, error){
		func() (*program.Program, error) { return program.BuildRC6(key, 2, 20) },
		func() (*program.Program, error) { return program.BuildRijndael(key, 10) },
	} {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		in := randomBlocks(rng, fastpath.BatchBlocks+13)
		sep := make([]bits.Block128, len(in))
		if _, err := ex.EncryptInto(sep, in); err != nil {
			t.Fatal(err)
		}
		alias := append([]bits.Block128(nil), in...)
		if _, err := ex.Fresh().EncryptInto(alias, alias); err != nil {
			t.Fatal(err)
		}
		for i := range sep {
			if alias[i] != sep[i] {
				t.Fatalf("%s block %d: aliased output %08x != separate-buffer output %08x", p.Name, i, alias[i], sep[i])
			}
		}
	}
}

// TestDeviceReconfigureInterleaved drives two core devices — fastpath and
// forced-interpreter — through interleaved bulk encryptions and
// reconfigurations across all three algorithms, requiring identical bytes
// and identical accumulated counters throughout. This is the §1
// algorithm-agility scenario with the executor being torn down and
// recompiled under the caller's feet.
func TestDeviceReconfigureInterleaved(t *testing.T) {
	key1 := []byte("{fastpath-key-1}")
	key2 := []byte("[fastpath-key-2]")
	fast, err := core.Configure(core.RC6, key1, core.Config{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	interp, err := core.Configure(core.RC6, key1, core.Config{Unroll: 1, Interpreter: true})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.UsesFastpath() {
		t.Fatalf("fastpath refused: %v", fast.FastpathErr())
	}
	if interp.UsesFastpath() {
		t.Fatal("Interpreter config compiled a trace")
	}

	rng := rand.New(rand.NewSource(42))
	iv := make([]byte, 16)
	rng.Read(iv)
	check := func(step string) {
		t.Helper()
		n := 16 * (1 + rng.Intn(6))
		src := make([]byte, n)
		rng.Read(src)
		wantECB, err := interp.EncryptECB(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: interpreter ECB: %v", step, err)
		}
		gotECB, err := fast.EncryptECB(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: fastpath ECB: %v", step, err)
		}
		if !bytes.Equal(gotECB, wantECB) {
			t.Fatalf("%s: ECB ciphertext diverges", step)
		}
		wantCTR, err := interp.EncryptCTR(context.Background(), iv, src)
		if err != nil {
			t.Fatal(err)
		}
		gotCTR, err := fast.EncryptCTR(context.Background(), iv, src)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCTR, wantCTR) {
			t.Fatalf("%s: CTR ciphertext diverges", step)
		}
		if fr, ir := fast.Report(), interp.Report(); fr.Stats != ir.Stats {
			t.Fatalf("%s: accumulated stats diverge:\nfastpath    %+v\ninterpreter %+v", step, fr.Stats, ir.Stats)
		}
	}

	check("rc6-unroll1")
	for _, step := range []struct {
		alg core.Algorithm
		key []byte
		cfg core.Config
	}{
		{core.Rijndael, key2, core.Config{Unroll: 2}},
		{core.Serpent, key1, core.Config{}}, // full unroll: streaming
		{core.RC6, key2, core.Config{}},
		{core.Rijndael, key1, core.Config{Unroll: 5}},
	} {
		if err := fast.Reconfigure(step.alg, step.key, step.cfg); err != nil {
			t.Fatal(err)
		}
		if err := interp.Reconfigure(step.alg, step.key, core.Config{Unroll: step.cfg.Unroll, Interpreter: true}); err != nil {
			t.Fatal(err)
		}
		if !fast.UsesFastpath() {
			t.Fatalf("%s/%d: fastpath refused after reconfigure: %v", step.alg, step.cfg.Unroll, fast.FastpathErr())
		}
		check(fmt.Sprintf("%s-unroll%d", step.alg, step.cfg.Unroll))
	}
}
