// Command cobra-sim runs a cipher configuration on the cycle-accurate
// COBRA simulator: it plays the role of the paper's VHDL testbench, loading
// the iRAM, driving the ready/go/busy/data-valid handshake, streaming
// blocks through the datapath, and reporting the Table 3 metrics for the
// run. Input and output are whole cipher blocks, marshalled to and from
// datapath superblocks by the cipher's registry entry; -verify checks the
// run's own output against the reference cipher in the run's direction.
//
// Usage:
//
//	cobra-sim -alg rijndael -rounds 2 -key 000102...0f -blocks 64
//	cobra-sim -alg rc6 -rounds 20 -in plain.bin -out cipher.bin
//	cobra-sim -alg serpent -rounds 1 -verify -trace
//	cobra-sim -alg tea              # no -rounds: the deepest legal unroll
//	cobra-sim -alg serpent -decrypt # no -rounds: the deepest decryptor
package main

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"cobra/internal/isa"
	"cobra/internal/model"
	"cobra/internal/program"
)

func main() {
	alg := flag.String("alg", "rijndael", "algorithm: "+strings.Join(program.Names(), ", "))
	rounds := flag.Int("rounds", 0, "unroll depth (0 = the deepest legal unroll in the run's direction)")
	keyHex := flag.String("key", strings.Repeat("00", 16), "key (hex)")
	blocks := flag.Int("blocks", 16, "number of synthetic datapath blocks when -in is not given")
	inFile := flag.String("in", "", "input file (whole cipher blocks)")
	outFile := flag.String("out", "", "output file")
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
	build, depths := spec.Build, spec.Depths
	if *decrypt {
		build, depths = spec.BuildDecrypt, spec.DecryptDepths
	}
	if *rounds == 0 {
		*rounds = depths[len(depths)-1]
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
	// Analyze timing on the steady (post-setup) configuration, before the
	// run leaves the machine frozen in a first/last-round special state.
	tm := model.Analyze(m.Array, model.DefaultDelays())

	var src []byte
	if *inFile != "" {
		if src, err = os.ReadFile(*inFile); err != nil {
			fatal(err)
		}
	} else {
		src = make([]byte, *blocks*spec.BlockSize*spec.BlocksPerSuperblock)
		for i := range src {
			src[i] = byte(i * 37)
		}
	}
	sbs, err := spec.Pack(src)
	if err != nil {
		fatal(err)
	}
	stats, err := program.RunBytes(m, p, sbs, sbs, program.Opts{})
	if err != nil {
		fatal(err)
	}
	dst, err := spec.Unpack(sbs)
	if err != nil {
		fatal(err)
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, dst, 0o644); err != nil {
			fatal(err)
		}
	}

	if *verify {
		ref, err := spec.Reference(key)
		if err != nil {
			fatal(err)
		}
		want := make([]byte, len(src))
		for i := 0; i < len(src); i += spec.BlockSize {
			if *decrypt {
				ref.Decrypt(want[i:], src[i:])
			} else {
				ref.Encrypt(want[i:], src[i:])
			}
		}
		if !bytes.Equal(dst, want) {
			fatal(fmt.Errorf("verification against the reference cipher FAILED"))
		}
		fmt.Println("verified against reference cipher: ok")
	}

	nBlocks := len(sbs) / 16
	cpb := float64(stats.Cycles) / float64(nBlocks)
	fmt.Printf("configuration:    %s (%d rows, window %d, streaming=%v)\n",
		p.Name, p.Geometry.Rows, p.Window, p.Streaming)
	fmt.Printf("microcode:        %d instructions\n", len(p.Instrs))
	fmt.Printf("blocks:           %d\n", nBlocks)
	fmt.Printf("datapath cycles:  %d (%.2f per block; %d stalled, %d NOP slots)\n",
		stats.Cycles, cpb, stats.Stalled, stats.Nops)
	fmt.Printf("clock (model):    %.3f MHz datapath, %.3f MHz iRAM\n",
		tm.DatapathMHz, tm.IRAMMHz)
	fmt.Printf("throughput:       %.2f Mbps\n",
		tm.DatapathMHz*float64(8*spec.BlockSize*spec.BlocksPerSuperblock)/cpb)
	if len(dst) >= spec.BlockSize {
		fmt.Printf("first block out:  %x\n", dst[:spec.BlockSize])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cobra-sim:", err)
	os.Exit(1)
}
