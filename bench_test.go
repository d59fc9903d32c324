// Package cobra's top-level benchmark suite regenerates every table and
// figure of the paper's evaluation section; run with
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN drives the corresponding harness in internal/bench
// and reports the headline quantity as a custom metric, so a single bench
// run prints the whole reproduction next to Go's timing output. The
// BenchmarkSoftwareBaseline* group measures the pure-Go reference ciphers
// — the general-purpose-processor baseline the paper's introduction argues
// cannot reach the 622 Mbps requirement — and BenchmarkSimulator* measure
// the simulator's own speed (host cycles per simulated datapath cycle).
package cobra_test

import (
	"context"
	"fmt"
	"testing"

	"cobra/internal/bench"
	"cobra/internal/census"
	"cobra/internal/cipher"
	"cobra/internal/core"
	"cobra/internal/datapath"
	"cobra/internal/farm"
	"cobra/internal/model"
	"cobra/internal/program"
)

var benchKey = []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// BenchmarkTable1 regenerates the AES-finalist FPGA study table
// (literature data; the benchmark measures the renderer).
func BenchmarkTable1(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table1Text()
	}
	if testing.Verbose() {
		b.Log("\n" + out)
	}
	_ = out
}

// BenchmarkTable2 regenerates the 41-cipher operation census.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := census.Table2()
		if rows[0].Occurrences != 40 {
			b.Fatal("census drifted")
		}
	}
	if testing.Verbose() {
		b.Log("\n" + bench.Table2Text())
	}
}

// benchmarkConfig measures one Table 3 row, reporting the paper's metrics
// as custom benchmark outputs.
func benchmarkConfig(b *testing.B, alg string, rounds int) {
	c := bench.Config{Alg: alg, Rounds: rounds}
	var m bench.Measurement
	var err error
	for i := 0; i < b.N; i++ {
		m, err = bench.Measure(c, benchKey, 32)
		if err != nil {
			b.Fatal(err)
		}
		if !m.Verified {
			b.Fatalf("%s-%d failed verification", alg, rounds)
		}
	}
	b.ReportMetric(m.CyclesPerBlock, "cycles/block")
	b.ReportMetric(m.FreqMHz, "MHz")
	b.ReportMetric(m.Mbps, "Mbps(model)")
}

// BenchmarkTable3 covers every configuration of the performance sweep.
func BenchmarkTable3(b *testing.B) {
	for _, c := range bench.Configurations() {
		b.Run(fmt.Sprintf("%s-%d", c.Alg, c.Rounds), func(b *testing.B) {
			benchmarkConfig(b, c.Alg, c.Rounds)
		})
	}
}

// BenchmarkTable4 regenerates the element gate counts.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := model.Table4()
		if g.C != 98624 {
			b.Fatal("Table 4 drifted")
		}
	}
	if testing.Verbose() {
		b.Log("\n" + bench.Table4Text())
	}
}

// BenchmarkTable5 regenerates the architecture gate counts and reports the
// base total as a metric.
func BenchmarkTable5(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		total = model.Table5(model.Table4(), datapath.BaseGeometry()).Total()
	}
	b.ReportMetric(float64(total), "gates(base)")
	if testing.Verbose() {
		b.Log("\n" + bench.Table5Text(datapath.BaseGeometry()))
	}
}

// BenchmarkTable6 regenerates the cycle-gates product sweep and reports
// each cipher's best-configuration CG as metrics.
func BenchmarkTable6(b *testing.B) {
	var rows []model.CGRow
	for i := 0; i < b.N; i++ {
		ms, err := bench.MeasureAll(benchKey, 16)
		if err != nil {
			b.Fatal(err)
		}
		rows = bench.Table6Rows(ms)
	}
	for _, r := range rows {
		if r.Normalized == 1.0 {
			b.ReportMetric(r.CGProduct, "bestCG/"+r.Cipher)
		}
	}
}

// BenchmarkFigure1 renders the architecture topology.
func BenchmarkFigure1(b *testing.B) {
	var out string
	var err error
	for i := 0; i < b.N; i++ {
		out, err = bench.Figure1Text(bench.Config{Alg: "rijndael", Rounds: 2}, benchKey)
		if err != nil {
			b.Fatal(err)
		}
	}
	if testing.Verbose() {
		b.Log("\n" + out)
	}
}

// BenchmarkFigure23 renders the configured RCE/RCE MUL chains.
func BenchmarkFigure23(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure23Text(bench.Config{Alg: "rc6", Rounds: 2}, benchKey); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkATMRequirement checks the §1 headline claim across the three
// full-length pipelines.
func BenchmarkATMRequirement(b *testing.B) {
	for _, c := range []bench.Config{{Alg: "rc6", Rounds: 20},
		{Alg: "rijndael", Rounds: 10}, {Alg: "serpent", Rounds: 32}} {
		b.Run(fmt.Sprintf("%s-%d", c.Alg, c.Rounds), func(b *testing.B) {
			var m bench.Measurement
			var err error
			for i := 0; i < b.N; i++ {
				m, err = bench.Measure(c, benchKey, 64)
				if err != nil {
					b.Fatal(err)
				}
			}
			if m.Mbps < bench.ATMRequirementMbps {
				b.Fatalf("%s-%d: %.1f Mbps misses 622 Mbps", c.Alg, c.Rounds, m.Mbps)
			}
			b.ReportMetric(m.Mbps, "Mbps(model)")
		})
	}
}

// --- Software baseline (§1: GPP implementations vs. the requirement) ---------

func benchmarkSoftware(b *testing.B, blk cipher.Block) {
	buf := make([]byte, blk.BlockSize())
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.Encrypt(buf, buf)
	}
}

// BenchmarkSoftwareBaseline measures the pure-Go reference ciphers.
func BenchmarkSoftwareBaseline(b *testing.B) {
	mk := func(blk cipher.Block, err error) cipher.Block {
		if err != nil {
			b.Fatal(err)
		}
		return blk
	}
	key32 := make([]byte, 32)
	ciphers := []struct {
		name string
		blk  cipher.Block
	}{
		{"rc6", mk(cipher.NewRC6(benchKey))},
		{"rijndael", mk(cipher.NewRijndael(benchKey))},
		{"serpent", mk(cipher.NewSerpent(benchKey))},
		{"serpent-cobra", mk(cipher.NewSerpentCOBRA(benchKey))},
		{"des", mk(cipher.NewDES(benchKey[:8]))},
		{"idea", mk(cipher.NewIDEA(benchKey))},
		{"tea", mk(cipher.NewTEA(benchKey))},
		{"xtea", mk(cipher.NewXTEA(benchKey))},
		{"rc5", mk(cipher.NewRC5(benchKey))},
		{"blowfish", mk(cipher.NewBlowfish(benchKey))},
		{"gost", mk(cipher.NewGOST(key32))},
	}
	for _, c := range ciphers {
		b.Run(c.name, func(b *testing.B) { benchmarkSoftware(b, c.blk) })
	}
}

// --- Simulator engineering benchmarks ------------------------------------------

// BenchmarkSimulatorDatapathCycle measures the cost of one simulated
// datapath cycle on a fully configured array.
func BenchmarkSimulatorDatapathCycle(b *testing.B) {
	p, err := program.BuildRijndael(benchKey, 2)
	if err != nil {
		b.Fatal(err)
	}
	m, err := program.NewMachine(p)
	if err != nil {
		b.Fatal(err)
	}
	if err := program.Load(m, p); err != nil {
		b.Fatal(err)
	}
	blocks := make([]byte, 16*64)
	b.SetBytes(16)
	b.ResetTimer()
	n := 0
	for n < b.N {
		out := make([]byte, len(blocks))
		stats, err := program.RunBytes(m, p, out, blocks, program.Opts{})
		if err != nil {
			b.Fatal(err)
		}
		_ = out
		n += stats.Cycles
	}
	b.ReportMetric(float64(n), "sim-cycles")
}

// BenchmarkSimulatorThroughput measures end-to-end simulated encryption
// speed (host side) for the full AES pipeline.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, err := program.BuildRijndael(benchKey, 10)
	if err != nil {
		b.Fatal(err)
	}
	m, err := program.NewMachine(p)
	if err != nil {
		b.Fatal(err)
	}
	if err := program.Load(m, p); err != nil {
		b.Fatal(err)
	}
	src := make([]byte, 16*128)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := program.RunBytes(m, p, make([]byte, len(src)), src, program.Opts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssembler measures assembly of a realistic program.
func BenchmarkAssembler(b *testing.B) {
	p, err := program.BuildSerpent(benchKey, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := program.BuildSerpent(benchKey, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = p.Words()
		}
	})
}

// BenchmarkTimingAnalysis measures the static timing analyzer.
func BenchmarkTimingAnalysis(b *testing.B) {
	p, err := program.BuildSerpent(benchKey, 32)
	if err != nil {
		b.Fatal(err)
	}
	m, err := program.NewMachine(p)
	if err != nil {
		b.Fatal(err)
	}
	if err := program.Load(m, p); err != nil {
		b.Fatal(err)
	}
	d := model.DefaultDelays()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := model.Analyze(m.Array, d)
		if tm.DatapathMHz <= 0 {
			b.Fatal("bad analysis")
		}
	}
}

// BenchmarkBatchAblation reports the pipeline-fill amortization of the
// full-length Serpent pipeline (the §4.1 drain discussion).
func BenchmarkBatchAblation(b *testing.B) {
	var single, amortized float64
	for i := 0; i < b.N; i++ {
		pts, err := bench.BatchSweep(bench.Config{Alg: "serpent", Rounds: 32}, benchKey, []int{1, 64})
		if err != nil {
			b.Fatal(err)
		}
		single, amortized = pts[0].CyclesPerBlock, pts[1].CyclesPerBlock
	}
	b.ReportMetric(single, "cycles/blk(N=1)")
	b.ReportMetric(amortized, "cycles/blk(N=64)")
}

// BenchmarkFarm is the farm's scaling sweep of record: one Rijndael
// tenant (full unroll) on a fresh pool per point, fed 2048-block messages
// in counter mode and in CBC decryption — both non-feedback modes of
// Table 1, so both shard across the pool. The headline metrics are
// wall-cyc/op, the busiest worker's simulated cycles per call, and
// Mbps(sim), the aggregate simulated throughput they imply; both scale
// with the pool (the replication payoff of Table 1's non-feedback
// column). Host ns/op improves only with real cores (GOMAXPROCS
// permitting).
func BenchmarkFarm(b *testing.B) {
	src := make([]byte, 16*2048)
	for i := range src {
		src[i] = byte(i * 31)
	}
	iv := make([]byte, 16)
	for _, mode := range []string{"ctr", "decrypt_cbc"} {
		for _, workers := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(b *testing.B) {
				pool, err := farm.NewPool(workers)
				if err != nil {
					b.Fatal(err)
				}
				defer pool.Close()
				f, err := pool.Open(core.Rijndael, benchKey, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				call := f.EncryptCTR
				if mode == "decrypt_cbc" {
					call = f.DecryptCBC
				}
				b.SetBytes(int64(len(src)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := call(context.Background(), iv, src); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				r := f.Report()
				b.ReportMetric(r.ThroughputMbps, "Mbps(sim)")
				b.ReportMetric(float64(r.WallCycles)/float64(b.N), "wall-cyc/op")
			})
		}
	}
}

// BenchmarkDecryption measures device decryption across the three
// ciphers at the base-architecture granularity, on each engine: the
// compiled trace (Config{}) and the cycle-accurate interpreter. The first
// call, which builds the decryption engine, runs before the timer starts.
func BenchmarkDecryption(b *testing.B) {
	for _, c := range []struct {
		alg    core.Algorithm
		unroll int
	}{{core.RC6, 2}, {core.Rijndael, 2}, {core.Serpent, 1}} {
		for _, interp := range []bool{false, true} {
			engine := "fastpath"
			if interp {
				engine = "interpreter"
			}
			b.Run(fmt.Sprintf("%s-%d/%s", c.alg, c.unroll, engine), func(b *testing.B) {
				d, err := core.Configure(c.alg, benchKey, core.Config{Unroll: c.unroll, Interpreter: interp})
				if err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				src := make([]byte, 16*16)
				dst := make([]byte, len(src))
				if _, err := d.DecryptECBInto(ctx, dst, src); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(src)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.DecryptECBInto(ctx, dst, src); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRebind measures one device switching between two tenants at
// full unroll — rijndael-10 to rijndael-10 under another key (the machine
// stays), and rijndael-10 ↔ rc6-20 (20 and 40 rows: the machine is
// re-tiled) — on each path: reconfigure builds and compiles the target's
// image on the switching device (Device.Reconfigure), load installs an
// image compiled beforehand (Device.Load, a farm worker's rebind). Every
// op is one switch and runs one configuration phase; the device
// alternates between the two targets. Run with -benchmem.
func BenchmarkRebind(b *testing.B) {
	type target struct {
		alg core.Algorithm
		key []byte
	}
	key2 := []byte("rebind-key-two!!")
	for _, c := range []struct {
		name    string
		targets [2]target
	}{
		{"rijndael-10-rekey", [2]target{{core.Rijndael, benchKey}, {core.Rijndael, key2}}},
		{"rijndael-10-rc6-20", [2]target{{core.Rijndael, benchKey}, {core.RC6, benchKey}}},
	} {
		var imgs [2]*core.Image
		for i, t := range c.targets {
			d, err := core.Configure(t.alg, t.key, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			imgs[i] = d.Image()
		}
		for _, path := range []string{"reconfigure", "load"} {
			b.Run(c.name+"/"+path, func(b *testing.B) {
				d, err := core.NewDevice(imgs[0])
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 1; i <= b.N; i++ {
					t := c.targets[i%2]
					if path == "load" {
						err = d.Load(imgs[i%2])
					} else {
						err = d.Reconfigure(t.alg, t.key, core.Config{})
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
