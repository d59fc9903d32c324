// vpn-gateway simulates the paper's motivating application (§1): a virtual
// private network gateway that must encrypt bulk traffic at the 622 Mbps
// ATM line rate. The gateway is a real network service here — an
// in-process cobrad (internal/serve) fronting the simulated COBRA
// hardware — and each branch office is a TCP client session pinning its
// own cipher configuration, one per §4 cipher. Every site streams a
// synthetic packet trace through the gateway, round-trips it back, and
// checks the modeled sustained throughput against the requirement — the
// paper's headline claim — before the gateway drains gracefully.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"cobra/internal/serve"
	"cobra/internal/serve/client"
)

// packet sizes typical of a mixed traffic distribution, padded to the
// 16-byte block size by the framer.
var packetSizes = []int{64, 1504, 576, 1504, 128, 1504, 352, 48, 1504, 992}

// site is one branch office: a tenant with its own cipher program and key.
var sites = []struct {
	tenant string
	alg    string
}{
	{"site-a", "rc6"},
	{"site-b", "rijndael"},
	{"site-c", "serpent"},
}

func main() {
	fmt.Println("COBRA VPN gateway: 622 Mbps ATM encryption requirement (§1)")
	fmt.Println()

	// The gateway appliance: a shared four-device COBRA farm with
	// program-aware scheduling, so the three sites partition the pool
	// and stream without reconfiguring each other's devices. Each
	// device runs the full-length pipeline (unroll 0) — the
	// configuration the paper shows meets the ATM requirement for all
	// three ciphers.
	gw, err := serve.NewServer(serve.Options{Backend: "farm", Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := gw.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gateway listening on %s\n\n", gw.Addr())

	for i, site := range sites {
		key := make([]byte, 16)
		for j := range key {
			key[j] = byte(0x42 + j + 16*i) // per-site key material
		}

		c, err := client.Dial(gw.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		ack, err := c.Configure(client.Config{Tenant: site.tenant, Alg: site.alg, Key: key})
		if err != nil {
			log.Fatal(err)
		}

		var trace []byte
		for j, sz := range packetSizes {
			pkt := make([]byte, (sz+15)/16*16)
			for k := range pkt {
				pkt[k] = byte(j*31 + k)
			}
			trace = append(trace, pkt...)
		}

		ct, err := c.Encrypt(serve.ModeECB, nil, trace)
		if err != nil {
			log.Fatal(err)
		}
		if len(ct) != len(trace) {
			log.Fatalf("%s: framer length mismatch", site.alg)
		}

		// Snapshot throughput now: the §1 line-rate requirement is for
		// encryption, and the decrypt spot-check below would fold
		// serpent's base-granularity decryption mapping into the rate.
		st, err := c.Stats()
		if err != nil {
			log.Fatal(err)
		}
		r := st.Backend

		// Spot-check the gateway can decrypt the site's own traffic.
		pt, err := c.Decrypt(serve.ModeECB, nil, ct)
		if err != nil {
			log.Fatal(err)
		}
		for j := range trace {
			if pt[j] != trace[j] {
				log.Fatalf("%s: corrupted traffic at byte %d", site.alg, j)
			}
		}
		verdict := "MEETS"
		if r.ThroughputMbps < 622 {
			verdict = "MISSES"
		}
		fmt.Printf("%-7s %-9s unroll=%-2d rows=%-3d  %7.2f cycles/blk  %7.3f MHz  %9.1f Mbps  -> %s 622 Mbps\n",
			site.tenant, r.Algorithm, ack.Unroll, ack.Rows, r.CyclesPerBlock, r.DatapathMHz,
			r.ThroughputMbps, verdict)
		c.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		log.Fatalf("gateway drain: %v", err)
	}

	fmt.Println()
	fmt.Println("All site traffic round-tripped through the gateway; graceful drain complete.")
}
