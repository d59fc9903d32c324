// Command cobra-sim runs a cipher configuration on the cycle-accurate
// COBRA simulator: it plays the role of the paper's VHDL testbench, loading
// the iRAM, driving the ready/go/busy/data-valid handshake, streaming
// plaintext blocks through the datapath, and reporting the Table 3 metrics
// for the run.
//
// Usage:
//
//	cobra-sim -alg rijndael -rounds 2 -key 000102...0f -blocks 64
//	cobra-sim -alg rc6 -rounds 20 -in plain.bin -out cipher.bin
//	cobra-sim -alg serpent -rounds 1 -verify -trace
//	cobra-sim -alg tea              # no -rounds: the deepest legal unroll
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"cobra/internal/bench"
	"cobra/internal/bits"
	"cobra/internal/isa"
	"cobra/internal/program"
)

func main() {
	alg := flag.String("alg", "rijndael", "algorithm: "+strings.Join(program.Names(), ", "))
	rounds := flag.Int("rounds", 0, "unroll depth (0 = the deepest legal unroll)")
	keyHex := flag.String("key", strings.Repeat("00", 16), "key (hex)")
	blocks := flag.Int("blocks", 16, "number of synthetic test blocks when -in is not given")
	inFile := flag.String("in", "", "plaintext input file (multiple of 16 bytes)")
	outFile := flag.String("out", "", "ciphertext output file")
	decrypt := flag.Bool("decrypt", false, "run the decryption mapping instead of encryption")
	verify := flag.Bool("verify", true, "verify output against the reference cipher")
	trace := flag.Bool("trace", false, "print every executed instruction")
	flag.Parse()

	key, err := hex.DecodeString(*keyHex)
	if err != nil {
		fatal(fmt.Errorf("bad -key: %v", err))
	}
	spec, err := program.Lookup(*alg)
	if err != nil {
		fatal(err)
	}
	if *rounds == 0 {
		*rounds = spec.Depths[len(spec.Depths)-1]
	}
	cfg := bench.Config{Alg: *alg, Rounds: *rounds}
	build := spec.Build
	if *decrypt {
		build = spec.BuildDecrypt
	}
	p, err := build(key, *rounds)
	if err != nil {
		fatal(err)
	}
	m, err := program.NewMachine(p)
	if err != nil {
		fatal(err)
	}
	if *trace {
		m.Trace = func(addr int, in isa.Instr) {
			fmt.Fprintf(os.Stderr, "%04x  %s\n", addr, in)
		}
	}
	if err := program.Load(m, p); err != nil {
		fatal(err)
	}

	var src []byte
	if *inFile != "" {
		src, err = os.ReadFile(*inFile)
		if err != nil {
			fatal(err)
		}
		if len(src)%16 != 0 {
			fatal(fmt.Errorf("input length %d is not a multiple of 16", len(src)))
		}
	} else {
		src = make([]byte, 16**blocks)
		for i := range src {
			src[i] = byte(i * 37)
		}
	}

	dst := make([]byte, len(src))
	stats, err := program.RunBytes(m, p, dst, src, program.Opts{})
	if err != nil {
		fatal(err)
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, dst, 0o644); err != nil {
			fatal(err)
		}
	}

	if *verify && !*decrypt {
		meas, err := bench.Measure(cfg, key, 4)
		if err != nil {
			fatal(err)
		}
		if !meas.Verified {
			fatal(fmt.Errorf("verification against the reference cipher FAILED"))
		}
		fmt.Println("verified against reference cipher: ok")
	}

	nBlocks := len(src) / 16
	cpb := float64(stats.Cycles) / float64(nBlocks)
	meas, err := bench.Measure(cfg, key, 1)
	if err != nil {
		fatal(err)
	}
	dir := "encrypt"
	if *decrypt {
		dir = "decrypt"
	}
	fmt.Printf("configuration:    %s-%d %s (%d rows, window %d, streaming=%v)\n",
		*alg, *rounds, dir, p.Geometry.Rows, p.Window, p.Streaming)
	fmt.Printf("microcode:        %d instructions\n", len(p.Instrs))
	fmt.Printf("blocks:           %d\n", nBlocks)
	fmt.Printf("datapath cycles:  %d (%.2f per block; %d stalled, %d NOP slots)\n",
		stats.Cycles, cpb, stats.Stalled, stats.Nops)
	fmt.Printf("clock (model):    %.3f MHz datapath, %.3f MHz iRAM\n",
		meas.FreqMHz, 2*meas.FreqMHz)
	fmt.Printf("throughput:       %.2f Mbps\n",
		meas.FreqMHz*float64(8*spec.BlockSize*spec.BlocksPerSuperblock)/cpb)
	if !quiet(dst) {
		fmt.Printf("first block out:  %x\n", dst[:16])
	}
	_ = bits.Block128{}
}

// quiet reports an empty ciphertext (defensive; never true in practice).
func quiet(b []byte) bool { return len(b) < 16 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cobra-sim:", err)
	os.Exit(1)
}
