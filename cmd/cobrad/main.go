// Command cobrad is the COBRA cipher daemon: it serves the simulated
// reconfigurable cryptographic hardware (internal/core) to network
// clients over the length-prefixed binary protocol in internal/serve.
// Each connection is a tenant session pinning one (algorithm, key,
// unroll) configuration; a capacity-bounded LRU of configured backends
// shares compiled fastpath traces between sessions, admission control
// sheds BUSY instead of queueing unboundedly, and SIGTERM drains
// gracefully: in-flight requests finish, sessions are told DRAINING,
// and the process exits 0.
//
// Usage:
//
//	cobrad                                     # device backend on 127.0.0.1:7316
//	cobrad -backend farm -workers 4            # shared 4-device pool, program-aware scheduling
//	cobrad -addr :7316 -metrics 127.0.0.1:9090 # plus live /metrics
//	cobra-cli -addr 127.0.0.1:7316 encrypt ... # talk to it
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cobra/internal/obs"
	"cobra/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7316", "listen address (port 0 picks one)")
	backend := flag.String("backend", "device", "backend per configuration: device or farm")
	workers := flag.Int("workers", 4, "shared worker-pool width (farm backend only)")
	cache := flag.Int("cache", 8, "max configured backends kept in the LRU")
	maxInflight := flag.Int("max-inflight", 0, "concurrent requests per backend (0: 1 for device, workers for farm)")
	maxWaiters := flag.Int("max-waiters", 0, "requests queued per backend before BUSY (0: 2x max-inflight)")
	maxFrame := flag.Uint("max-frame", uint(serve.DefaultMaxFrame), "max frame payload bytes")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /debug/vars on this address (e.g. 127.0.0.1:9090)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight sessions on SIGTERM before force-close")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}

	var metricsSrv *obs.Server
	opts := serve.Options{
		Backend:     *backend,
		Workers:     *workers,
		MaxBackends: *cache,
		MaxInflight: *maxInflight,
		MaxWaiters:  *maxWaiters,
		MaxFrame:    uint32(*maxFrame),
		Logf:        logf,
	}
	if *metricsAddr != "" {
		opts.Metrics = obs.Default
		srv, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fatal(err)
		}
		metricsSrv = srv
		// Parsed by the CI smoke test; keep the prefix stable.
		fmt.Printf("metrics: serving on %s\n", srv.URL)
	}

	s, err := serve.NewServer(opts)
	if err != nil {
		fatal(err)
	}
	if err := s.Start(*addr); err != nil {
		fatal(err)
	}
	// Parsed by the CI smoke test and by scripts that use port 0; keep
	// the prefix stable.
	fmt.Printf("cobrad: listening on %s (backend=%s)\n", s.Addr(), *backend)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("cobrad: %v, draining (timeout %s)\n", got, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		// Sessions were force-closed at the deadline: report it, but a
		// bounded drain is still an orderly exit.
		fmt.Printf("cobrad: drain incomplete: %v\n", err)
	}
	if metricsSrv != nil {
		// The metrics endpoint gets its own small budget so a drain that
		// spent the whole timeout doesn't tear down a scrape mid-response.
		mctx, mcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer mcancel()
		if err := metricsSrv.Shutdown(mctx); err != nil {
			fmt.Printf("cobrad: metrics drain incomplete: %v\n", err)
		}
	}
	// Parsed by the CI smoke test; keep the prefix stable.
	fmt.Println("cobrad: drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cobrad:", err)
	os.Exit(1)
}
