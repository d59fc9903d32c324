package fastpath_test

import (
	"context"
	"fmt"
	"testing"

	"cobra/internal/core"
	"cobra/internal/program"
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

func benchDevice(b *testing.B, alg core.Algorithm, unroll int, interp bool) *core.Device {
	b.Helper()
	d, err := core.Configure(alg, benchKey(), core.Config{Unroll: unroll, Interpreter: interp})
	if err != nil {
		b.Fatal(err)
	}
	if !interp && !d.UsesFastpath() {
		b.Fatalf("%s unroll=%d: fastpath refused: %v", alg, unroll, d.FastpathErr())
	}
	return d
}

func benchECB(b *testing.B, interp bool) {
	for _, c := range benchConfigs {
		b.Run(fmt.Sprintf("%s-unroll%d", c.alg, c.unroll), func(b *testing.B) {
			d := benchDevice(b, c.alg, c.unroll, interp)
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
			d := benchDevice(b, c.alg, c.unroll, interp)
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
			d := benchDevice(b, c.alg, c.unroll, interp)
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
