// Command cobra-farm sweeps the worker count of an internal/farm device
// pool over a fixed non-feedback-mode workload and prints the
// throughput-scaling table: simulated wall-clock cycles, aggregate
// simulated throughput and speedup versus one device, plus the host-side
// wall time of the sweep. This is the replication experiment the paper's
// Table 1 NFB column implies but never runs — non-feedback modes scale by
// adding devices. Decryption in ECB and CBC is non-feedback too (each
// ciphertext block's chaining input is the previous ciphertext block,
// already known), so the sweep covers those as well.
//
// Usage:
//
//	cobra-farm                                   # AES-128 CTR, 4096 blocks, workers 1,2,4,8
//	cobra-farm -alg serpent -workers 1,2,4,8,16  # other datapaths / pool sizes
//	cobra-farm -mode ecb -rounds 2               # ECB sharding on an iterative pipeline
//	cobra-farm -mode decrypt_cbc                 # parallel CBC decryption (Table 1 NFB)
//	cobra-farm -metrics 127.0.0.1:9090 -hold 5m  # live /metrics + /debug/vars while sweeping
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"cobra/internal/core"
	"cobra/internal/farm"
	"cobra/internal/obs"
	"cobra/internal/program"
)

func main() {
	alg := flag.String("alg", "rijndael", "algorithm: rc6, rijndael, serpent")
	rounds := flag.Int("rounds", 0, "unroll depth (0: full unroll, maximum throughput)")
	blocks := flag.Int("blocks", 4096, "message size in 128-bit blocks")
	workersCSV := flag.String("workers", "1,2,4,8", "comma-separated pool sizes to sweep")
	mode := flag.String("mode", "ctr", "mode of operation: ctr, ecb, decrypt_ecb or decrypt_cbc")
	keyHex := flag.String("key", strings.Repeat("00", 16), "key (hex)")
	ivHex := flag.String("iv", strings.Repeat("00", 16), "initial counter block / IV (hex)")
	timeout := flag.Duration("timeout", 0, "per-sweep-point deadline (0: none)")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/trace on this address (e.g. 127.0.0.1:9090; port 0 picks one)")
	hold := flag.Duration("hold", 0, "keep the last farm open and the metrics endpoint serving this long after the sweep (requires -metrics)")
	trace := flag.Int("trace", 0, "per-farm span trace ring size (0: disabled; records at /debug/trace)")
	flag.Parse()

	key, err := hex.DecodeString(*keyHex)
	if err != nil {
		fatal(fmt.Errorf("bad -key: %v", err))
	}
	iv, err := hex.DecodeString(*ivHex)
	if err != nil {
		fatal(fmt.Errorf("bad -iv: %v", err))
	}
	workers, err := parseWorkers(*workersCSV)
	if err != nil {
		fatal(err)
	}

	msg := make([]byte, 16**blocks)
	for i := range msg {
		msg[i] = byte(i*31 + i>>8)
	}
	// Encrypt sweeps feed msg and expect the reference ciphertext;
	// decrypt sweeps feed the reference ciphertext and expect msg back.
	ref, err := hostReference(core.Algorithm(*alg), key, iv, msg, *mode)
	if err != nil {
		fatal(err)
	}
	input, want := msg, ref
	if strings.HasPrefix(*mode, "decrypt_") {
		input, want = ref, msg
	}

	var metrics *obs.Registry
	var metricsSrv *obs.Server
	if *metricsAddr != "" {
		metrics = obs.Default
		srv, err := obs.Serve(*metricsAddr, metrics)
		if err != nil {
			fatal(err)
		}
		metricsSrv = srv
		// A SIGTERM/SIGINT racing a scrape must not drop it: drain the
		// endpoint gracefully (deadline-bounded) instead of letting the
		// process exit tear the listener down mid-response.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		// Parsed by the CI smoke test; keep the prefix stable.
		fmt.Printf("metrics: serving on %s\n", srv.URL)
	}

	fmt.Printf("cobra-farm: %s-%s, %d blocks (%d KiB), shard cap %d blocks\n\n",
		*alg, *mode, *blocks, len(msg)/1024, farm.DefaultShardBlocks)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "workers\tjobs\twall cycles\tcyc/blk\tMbps (sim)\tspeedup\trecfg\thost ms")
	base := 0.0
	for _, n := range workers {
		f, err := farm.Open(core.Algorithm(*alg), key, farm.Options{
			Workers: n,
			Metrics: metrics,
			Trace:   *trace,
			Config:  core.Config{Unroll: *rounds},
		})
		if err != nil {
			fatal(err)
		}
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		startHost := time.Now()
		var got []byte
		switch *mode {
		case "ctr":
			got, err = f.EncryptCTR(ctx, iv, input)
		case "ecb":
			got, err = f.EncryptECB(ctx, input)
		case "decrypt_ecb":
			got, err = f.DecryptECB(ctx, input)
		case "decrypt_cbc":
			got, err = f.DecryptCBC(ctx, iv, input)
		default:
			err = fmt.Errorf("unknown -mode %q", *mode)
		}
		hostMS := float64(time.Since(startHost).Microseconds()) / 1000
		cancel()
		if err != nil {
			fatal(err)
		}
		if string(got) != string(want) {
			fatal(fmt.Errorf("workers=%d: output differs from host reference", n))
		}
		r := f.Report()
		if base == 0 {
			base = r.EffectiveMbps
		}
		speedup := 1.0
		if base > 0 {
			speedup = r.EffectiveMbps / base
		}
		jobs := 0
		for _, wr := range r.PerWorker {
			jobs += wr.Jobs
		}
		recfg := f.Pool().SchedStats().Reconfigures
		fmt.Fprintf(w, "%d\t%d\t%d\t%.2f\t%.1f\t%.2fx\t%d\t%.1f\n",
			n, jobs, r.WallCycles, r.CyclesPerBlock, r.EffectiveMbps, speedup, recfg, hostMS)
		if n == workers[len(workers)-1] && *hold > 0 && metricsSrv != nil {
			// Leave the final pool attached so the endpoint keeps serving
			// its live (post-sweep) counters — scrape, then signal or wait.
			// The hold is interruptible: SIGTERM/SIGINT ends it early and
			// falls through to the graceful metrics drain, so the held
			// process exits cleanly instead of dying mid-scrape.
			w.Flush()
			fmt.Printf("\nholding last farm open for %s (scrape /metrics now; SIGTERM ends the hold)\n", *hold)
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			select {
			case <-time.After(*hold):
			case s := <-sig:
				fmt.Printf("hold interrupted by %v, draining\n", s)
			}
			signal.Stop(sig)
		}
		f.Close()
	}
	w.Flush()
}

// parseWorkers parses the -workers sweep list.
func parseWorkers(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// hostReference computes the mode's reference ciphertext with the host
// reference cipher, so every sweep point is verified before its
// measurement prints. For the decrypt modes it returns the ciphertext
// the farm is asked to invert.
func hostReference(alg core.Algorithm, key, iv, msg []byte, mode string) ([]byte, error) {
	spec, err := program.Lookup(string(alg))
	if err != nil {
		return nil, err
	}
	blk, err := spec.Reference(key)
	if err != nil {
		return nil, err
	}
	dst := make([]byte, len(msg))
	switch mode {
	case "ctr":
		var c, ks [16]byte
		copy(c[:], iv)
		for off := 0; off < len(msg); off += 16 {
			blk.Encrypt(ks[:], c[:])
			for i := 15; i >= 0; i-- {
				c[i]++
				if c[i] != 0 {
					break
				}
			}
			for j := 0; j < 16 && off+j < len(msg); j++ {
				dst[off+j] = msg[off+j] ^ ks[j]
			}
		}
	case "ecb", "decrypt_ecb":
		if len(msg)%16 != 0 {
			return nil, fmt.Errorf("%s needs whole blocks", mode)
		}
		for off := 0; off < len(msg); off += 16 {
			blk.Encrypt(dst[off:], msg[off:])
		}
	case "decrypt_cbc":
		if len(msg)%16 != 0 {
			return nil, fmt.Errorf("%s needs whole blocks", mode)
		}
		prev := iv
		for off := 0; off < len(msg); off += 16 {
			var x [16]byte
			for j := 0; j < 16; j++ {
				x[j] = msg[off+j] ^ prev[j]
			}
			blk.Encrypt(dst[off:], x[:])
			prev = dst[off : off+16]
		}
	default:
		return nil, fmt.Errorf("unknown -mode %q", mode)
	}
	return dst, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cobra-farm:", err)
	os.Exit(1)
}
