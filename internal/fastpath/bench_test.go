package fastpath_test

import (
	"context"
	"fmt"
	"testing"

	"cobra/internal/bits"
	"cobra/internal/core"
	"cobra/internal/program"
	"cobra/internal/sim"
)

// benchConfigs are the architecture points the fastpath-vs-interpreter
// benchmarks measure: the paper's base configuration (one hardware round)
// and the full unroll (maximum throughput, the streaming pipeline).
var benchConfigs = []struct {
	alg    core.Algorithm
	unroll int
}{
	{core.RC6, 1},
	{core.RC6, 0},
	{core.Rijndael, 0},
	{core.Serpent, 0},
}

const benchBlocks = 256

func benchKey() []byte {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i * 17)
	}
	return key
}

// encrypter is the mode surface the benchmarks time: a core.Device, whose
// every call runs its compiled trace, or an interpreter.
type encrypter interface {
	EncryptECBInto(ctx context.Context, dst, src []byte) (sim.Stats, error)
	EncryptCTRInto(ctx context.Context, dst, iv, src []byte) (sim.Stats, error)
	EncryptCBCInto(ctx context.Context, dst, iv, src []byte) (sim.Stats, error)
}

// interpreter runs the modes on the cycle-accurate interpreter: the
// configuration's program on a machine of its own, through program.Run.
// A used streaming machine is restored to the program's recording before
// a call, so that a call does not simulate the configuration phase again
// (program.Run's reload) and the benchmark times the blocks alone.
type interpreter struct {
	p   *program.Program
	rec *sim.Recording
	m   *sim.Machine
	blk []bits.Block128
}

// newInterpreter loads alg's program for key at unroll (0: the full
// unroll) as Configure builds it.
func newInterpreter(tb testing.TB, alg core.Algorithm, key []byte, unroll int) *interpreter {
	tb.Helper()
	s, err := program.Lookup(string(alg))
	if err != nil {
		tb.Fatal(err)
	}
	if unroll == 0 {
		unroll = s.Rounds
	}
	r := &interpreter{}
	if r.p, err = s.Build(key, unroll); err != nil {
		tb.Fatal(err)
	}
	if r.rec, err = r.p.Record(); err != nil {
		tb.Fatal(err)
	}
	if r.m, err = program.NewMachine(r.p); err != nil {
		tb.Fatal(err)
	}
	if err := r.m.Restore(r.rec); err != nil {
		tb.Fatal(err)
	}
	return r
}

// run encrypts blk in place in one program.Run call.
func (r *interpreter) run(blk []bits.Block128) (sim.Stats, error) {
	if r.p.Streaming && r.m.Dirty() {
		if err := r.m.Restore(r.rec); err != nil {
			return sim.Stats{}, err
		}
	}
	return program.Run(r.m, r.p, blk, blk, program.Opts{})
}

func (r *interpreter) EncryptECBInto(_ context.Context, dst, src []byte) (sim.Stats, error) {
	r.blk = r.blk[:0]
	for i := 0; i < len(src); i += 16 {
		r.blk = append(r.blk, bits.LoadBlock128(src[i:]))
	}
	st, err := r.run(r.blk)
	for i, b := range r.blk {
		b.StoreBlock128(dst[16*i:])
	}
	return st, err
}

func (r *interpreter) EncryptCTRInto(_ context.Context, dst, iv, src []byte) (sim.Stats, error) {
	r.blk = r.blk[:0]
	for i := 0; i < len(src); i += 16 {
		c, err := core.AddCounter(iv, uint64(i/16))
		if err != nil {
			return sim.Stats{}, err
		}
		r.blk = append(r.blk, bits.LoadBlock128(c[:]))
	}
	st, err := r.run(r.blk)
	var ks [16]byte
	for i, b := range r.blk {
		b.StoreBlock128(ks[:])
		for j := 0; j < 16 && 16*i+j < len(src); j++ {
			dst[16*i+j] = src[16*i+j] ^ ks[j]
		}
	}
	return st, err
}

func (r *interpreter) EncryptCBCInto(_ context.Context, dst, iv, src []byte) (sim.Stats, error) {
	var total sim.Stats
	var one [1]bits.Block128
	var blk [16]byte
	prev := iv
	for i := 0; i < len(src); i += 16 {
		for j := range blk {
			blk[j] = src[i+j] ^ prev[j]
		}
		one[0] = bits.LoadBlock128(blk[:])
		st, err := r.run(one[:])
		if err != nil {
			return total, err
		}
		total.Add(st)
		one[0].StoreBlock128(dst[i:])
		prev = dst[i : i+16]
	}
	return total, nil
}

// benchEngine returns the fastpath (a configured device) or, with interp
// set, the interpreter for one configuration.
func benchEngine(b *testing.B, alg core.Algorithm, unroll int, interp bool) encrypter {
	b.Helper()
	if interp {
		return newInterpreter(b, alg, benchKey(), unroll)
	}
	d, err := core.Configure(alg, benchKey(), core.Config{Unroll: unroll})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchECB(b *testing.B, interp bool) {
	for _, c := range benchConfigs {
		b.Run(fmt.Sprintf("%s-unroll%d", c.alg, c.unroll), func(b *testing.B) {
			d := benchEngine(b, c.alg, c.unroll, interp)
			src := make([]byte, 16*benchBlocks)
			dst := make([]byte, len(src))
			b.SetBytes(int64(len(src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.EncryptECBInto(context.Background(), dst, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// bulkBlocks is the largest request of cobradbench's bulk workload (64
// KiB), which the fastpath CTR benchmark also times on each full unroll.
const bulkBlocks = 4096

func benchCTR(b *testing.B, interp bool) {
	iv := make([]byte, 16)
	type ctrCase struct {
		alg            core.Algorithm
		unroll, blocks int
		name           string
	}
	var cases []ctrCase
	for _, c := range benchConfigs {
		cases = append(cases, ctrCase{c.alg, c.unroll, benchBlocks, fmt.Sprintf("%s-unroll%d", c.alg, c.unroll)})
	}
	for _, c := range benchConfigs {
		if c.unroll == 0 && !interp {
			cases = append(cases, ctrCase{c.alg, c.unroll, bulkBlocks, fmt.Sprintf("%s-unroll%d-%dblocks", c.alg, c.unroll, bulkBlocks)})
		}
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			d := benchEngine(b, c.alg, c.unroll, interp)
			src := make([]byte, 16*c.blocks)
			dst := make([]byte, len(src))
			b.SetBytes(int64(len(src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.EncryptCTRInto(context.Background(), dst, iv, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cbcBlocks is the message length of the CBC benchmarks. CBC encryption
// is a chain of 1-block calls, so it measures a call's fill and drain.
const cbcBlocks = 64

func benchCBC(b *testing.B, interp bool) {
	iv := make([]byte, 16)
	for _, c := range benchConfigs {
		b.Run(fmt.Sprintf("%s-unroll%d", c.alg, c.unroll), func(b *testing.B) {
			d := benchEngine(b, c.alg, c.unroll, interp)
			src := make([]byte, 16*cbcBlocks)
			dst := make([]byte, len(src))
			b.SetBytes(int64(len(src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.EncryptCBCInto(context.Background(), dst, iv, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile times one trace compile (program.Compile: vet, the
// recording, the tick compiler and the self-check) of the full unrolls
// the bulk workload serves, and serpent's, the largest.
func BenchmarkCompile(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func() (*program.Program, error)
	}{
		{"rijndael-10", func() (*program.Program, error) { return program.BuildRijndael(benchKey(), 10) }},
		{"rc6-20", func() (*program.Program, error) { return program.BuildRC6(benchKey(), 20, 20) }},
		{"serpent-32", func() (*program.Program, error) { return program.BuildSerpent(benchKey(), 32) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := c.build()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Compile(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFastpathECB(b *testing.B)    { benchECB(b, false) }
func BenchmarkInterpreterECB(b *testing.B) { benchECB(b, true) }
func BenchmarkFastpathCTR(b *testing.B)    { benchCTR(b, false) }
func BenchmarkInterpreterCTR(b *testing.B) { benchCTR(b, true) }
func BenchmarkFastpathCBC(b *testing.B)    { benchCBC(b, false) }
func BenchmarkInterpreterCBC(b *testing.B) { benchCBC(b, true) }
