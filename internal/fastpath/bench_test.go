package fastpath_test

import (
	"context"
	"fmt"
	"testing"

	"cobra/internal/core"
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

func benchCTR(b *testing.B, interp bool) {
	iv := make([]byte, 16)
	for _, c := range benchConfigs {
		b.Run(fmt.Sprintf("%s-unroll%d", c.alg, c.unroll), func(b *testing.B) {
			d := benchDevice(b, c.alg, c.unroll, interp)
			src := make([]byte, 16*benchBlocks)
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

func BenchmarkFastpathECB(b *testing.B)    { benchECB(b, false) }
func BenchmarkInterpreterECB(b *testing.B) { benchECB(b, true) }
func BenchmarkFastpathCTR(b *testing.B)    { benchCTR(b, false) }
func BenchmarkInterpreterCTR(b *testing.B) { benchCTR(b, true) }
func BenchmarkFastpathCBC(b *testing.B)    { benchCBC(b, false) }
func BenchmarkInterpreterCBC(b *testing.B) { benchCBC(b, true) }
