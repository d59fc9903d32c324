package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"cobra/internal/serve"
)

// digest hashes everything a client stream sends and expects.
func digest(tenants []tenant, reqs []request) [32]byte {
	h := sha256.New()
	for _, t := range tenants {
		h.Write([]byte(t.name + "/" + string(t.alg)))
		h.Write(t.key)
	}
	for _, r := range reqs {
		var hdr [10]byte
		binary.BigEndian.PutUint32(hdr[0:], uint32(r.tenant))
		hdr[4], hdr[5] = byte(r.op), byte(r.mode)
		binary.BigEndian.PutUint32(hdr[6:], uint32(len(r.data)))
		h.Write(hdr[:])
		h.Write(r.iv)
		h.Write(r.data)
		h.Write(r.want)
	}
	return [32]byte(h.Sum(nil))
}

// TestStreamsAreSeeded pins that each client's traffic is a pure
// function of (workload, seed, client index): one seed gives
// byte-identical streams, another seed and another client differ.
func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, other := generate(w, defaultSeed), generate(w, defaultSeed), generate(w, heldOutSeed)
		for c := 0; c < clients; c++ {
			if digest(a.tenants, a.streams[c]) != digest(b.tenants, b.streams[c]) {
				t.Errorf("%s client %d: one seed gave two different streams", w.name, c)
			}
			if digest(a.tenants, a.streams[c]) == digest(other.tenants, other.streams[c]) {
				t.Errorf("%s client %d: seeds %d and %d gave the same stream", w.name, c, defaultSeed, heldOutSeed)
			}
		}
		if digest(nil, a.streams[0]) == digest(nil, a.streams[1]) {
			t.Errorf("%s: both clients send the same stream", w.name)
		}
	}
}

// TestDecryptRequestsInvert checks the expected responses of DECRYPT
// requests: the reference decryption of the request is the expected
// plaintext.
func TestDecryptRequestsInvert(t *testing.T) {
	w, err := workloadByName("cbc-duplex")
	if err != nil {
		t.Fatal(err)
	}
	in := generate(w, defaultSeed)
	ref := in.tenants[0].ref
	for _, r := range in.streams[0] {
		if r.op != serve.FrameDecrypt {
			continue
		}
		prev := r.iv
		for off := 0; off < len(r.data); off += 16 {
			var pt [16]byte
			ref.Decrypt(pt[:], r.data[off:off+16])
			for i := range pt {
				if pt[i]^prev[i] != r.want[off+i] {
					t.Fatalf("decrypt request's expected plaintext is not the reference CBC decryption")
				}
			}
			prev = r.data[off : off+16]
		}
	}
}

func TestStratified(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, tc := range []struct{ n, lo, hi, step int }{{2048, 1, 64, 1}, {192, 256, 1536, 16}, {48, 16 << 10, 64 << 10, 1}} {
		sizes := stratified(rng, tc.n, tc.lo, tc.hi, tc.step)
		sum := 0
		for _, s := range sizes {
			if s < tc.lo || s > tc.hi || (s-tc.lo)%tc.step != 0 {
				t.Fatalf("size %d outside [%d, %d] step %d", s, tc.lo, tc.hi, tc.step)
			}
			sum += s
		}
		// One draw per stratum keeps the mean within a stratum of the
		// range's midpoint for every seed.
		mid, stratum := float64(tc.lo+tc.hi)/2, float64(tc.hi-tc.lo+tc.step)/float64(tc.n)
		if d := float64(sum)/float64(tc.n) - mid; d > stratum+float64(tc.step) || d < -stratum-float64(tc.step) {
			t.Errorf("mean size %v is %v from the midpoint %v", float64(sum)/float64(tc.n), d, mid)
		}
	}
}

func TestTenantSequenceSwitchCount(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		seq := tenantSequence(rand.New(rand.NewPCG(seed, 0)), 63, 3)
		switches := 0
		var count [3]int
		for i := range seq {
			count[seq[i]]++
			if i > 0 && seq[i] != seq[i-1] {
				switches++
			}
		}
		if switches != 62*2/3 {
			t.Fatalf("seed %d: %d tenant switches, want %d", seed, switches, 62*2/3)
		}
		if count != [3]int{21, 21, 21} {
			t.Fatalf("seed %d: %v requests per tenant, want 21 each", seed, count)
		}
	}
}

// TestSizesStratifiedPerClass checks that each class of a workload's
// requests (mode on bulk, tenant on multi-tenant, direction on
// cbc-duplex) gets nearly the same payload for every seed.
func TestSizesStratifiedPerClass(t *testing.T) {
	for _, tc := range []struct {
		workload string
		class    func(r *request) int
	}{
		{"bulk", func(r *request) int { return int(r.mode) }},
		{"multi-tenant", func(r *request) int { return r.tenant }},
		{"cbc-duplex", func(r *request) int { return int(r.op) }},
	} {
		w, err := workloadByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		totals := map[int][]int{}
		for seed := uint64(1); seed <= 10; seed++ {
			// The streams alone, without their reference outputs.
			tenants := w.tenants(rngFor(w, seed, "tenants"))
			per := map[int]int{}
			for _, r := range w.gen(rngFor(w, seed, "client-0"), 0, tenants, w.pass) {
				per[tc.class(&r)] += len(r.data)
			}
			for c, b := range per {
				totals[c] = append(totals[c], b)
			}
		}
		for c, v := range totals {
			lo, hi := slices.Min(v), slices.Max(v)
			if float64(hi-lo) > 0.05*float64(hi) {
				t.Errorf("%s class %d: payload per pass ranges %d-%d bytes over seeds", tc.workload, c, lo, hi)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 4, 7}, [3]float64{1.75, 5.5, 9.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(tc.v); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

// TestSimulatedCountersRepeat is the check a host-only change must pass:
// the fixed slice of each workload, run twice against a fresh cobrad,
// fails no request and gives identical simulated counters.
func TestSimulatedCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cobrad")
	}
	bin := filepath.Join(t.TempDir(), "cobrad")
	if out, err := exec.Command("go", "build", "-o", bin, "cobra/cmd/cobrad").CombinedOutput(); err != nil {
		t.Fatalf("build cobrad: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{w: w, seed: defaultSeed, cobrad: bin, daemons: 1}
			var got [2]*result
			for i := range got {
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tl := res.total(); tl.failed() > 0 {
					t.Fatalf("%d of %d requests failed: %s", tl.failed(), tl.Attempted, tl.FirstErr)
				}
				got[i] = res
			}
			a, b := got[0].Slice, got[1].Slice
			if a.BlocksOut == 0 {
				t.Fatal("the slice produced no blocks")
			}
			if got[0].SliceReconfigures > 0 || got[1].SliceReconfigures > 0 {
				t.Logf("sim_ticks not compared: %d and %d farm rebinds re-ran the configuration phase",
					got[0].SliceReconfigures, got[1].SliceReconfigures)
				a.SimTicks, b.SimTicks = 0, 0
			}
			if a != b {
				t.Errorf("simulated counters differ between identical runs:\n%+v\n%+v", a, b)
			}
		})
	}
}
