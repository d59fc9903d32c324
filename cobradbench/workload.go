package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sync"

	"cobra/internal/cipher"
	"cobra/internal/core"
	"cobra/internal/serve"
)

// clients is the closed loop's width: one connection per CPU of the
// two-vCPU host the benchmark was sized on.
const clients = 2

// tenant is one (program, key) configuration a client CONFIGUREs, with
// the host-reference cipher its responses are checked against.
type tenant struct {
	name string
	alg  core.Algorithm
	key  []byte
	ref  cipher.Block
}

// request is one ENCRYPT or DECRYPT of a client's stream, with the
// response the daemon must return.
type request struct {
	tenant int // index into the workload's tenants
	op     serve.FrameType
	mode   serve.Mode
	iv     []byte
	data   []byte
	want   []byte
}

// blocks is the request's length in 128-bit blocks (partial tail
// included).
func (r *request) blocks() int { return (len(r.data) + 15) / 16 }

// class names the request's operation for per-mode reporting.
func (r *request) class() string {
	if r.op == serve.FrameDecrypt {
		return "decrypt_" + r.mode.String()
	}
	return r.mode.String()
}

// workload is one traffic mix: the daemon's flags, the tenants, and a
// generator for each client's request stream.
type workload struct {
	name  string
	flags []string // cobrad flags besides the listen and metrics addresses
	// pass is the length of each client's stream. The stream is replayed
	// from its start until the measured window closes, and one pass of
	// both clients is the fixed slice the simulated counters are read
	// over.
	pass int
	// tenants derives the workload's tenant keys from the seed.
	tenants func(rng *rand.Rand) []tenant
	// gen draws one client's stream of n requests.
	gen func(rng *rand.Rand, client int, tenants []tenant, n int) []request
	// warm lists, per client, the (tenant, op, mode) classes the warm-up
	// serves before timing so lazy set-up is done.
	warm func(client int) []warmClass
}

type warmClass struct {
	tenant int
	op     serve.FrameType
	mode   serve.Mode
}

// farmFlags is the shared pool every farm workload runs on: two workers,
// one per CPU.
var farmFlags = []string{"-backend", "farm", "-workers", "2"}

var workloads = []*workload{
	{
		name:  "small-ctr",
		flags: farmFlags,
		pass:  2048,
		tenants: func(rng *rand.Rand) []tenant {
			return []tenant{mkTenant("rijndael", core.Rijndael, randBytes(rng, 16))}
		},
		gen: func(rng *rand.Rand, _ int, _ []tenant, n int) []request {
			sizes := stratified(rng, n, 1, 64, 1)
			reqs := make([]request, n)
			for i := range reqs {
				reqs[i] = request{op: serve.FrameEncrypt, mode: serve.ModeCTR,
					iv: randBytes(rng, 16), data: randBytes(rng, sizes[i])}
			}
			return reqs
		},
		warm: func(int) []warmClass {
			return []warmClass{{0, serve.FrameEncrypt, serve.ModeCTR}}
		},
	},
	{
		name:  "bulk",
		flags: []string{"-backend", "device"},
		pass:  32,
		tenants: func(rng *rand.Rand) []tenant {
			return []tenant{
				mkTenant("rijndael", core.Rijndael, randBytes(rng, 16)),
				mkTenant("rc6", core.RC6, randBytes(rng, 16)),
			}
		},
		gen: func(rng *rand.Rand, client int, _ []tenant, n int) []request {
			mode := make([]int, n)
			for i := range mode {
				mode[i] = i % 2
			}
			sizes := stratifiedBy(rng, mode, 16<<10, 64<<10, 1)
			reqs := make([]request, n)
			for i := range reqs {
				r := request{tenant: client, op: serve.FrameEncrypt, mode: serve.ModeCTR}
				if mode[i] == 1 {
					r.mode = serve.ModeECB
					sizes[i] &^= 15
				} else {
					r.iv = randBytes(rng, 16)
				}
				r.data = randBytes(rng, sizes[i])
				reqs[i] = r
			}
			return reqs
		},
		warm: func(client int) []warmClass {
			return []warmClass{
				{client, serve.FrameEncrypt, serve.ModeCTR},
				{client, serve.FrameEncrypt, serve.ModeECB},
			}
		},
	},
	{
		name:  "multi-tenant",
		flags: farmFlags,
		pass:  63,
		tenants: func(rng *rand.Rand) []tenant {
			// The BENCH_farm.json tenant set: two keys of one program
			// and a second program, keys derived from one seed key.
			a := randBytes(rng, 16)
			b, c := make([]byte, 16), make([]byte, 16)
			for i := range a {
				b[i], c[i] = a[i]^0x5A, a[i]^0xA5
			}
			return []tenant{
				mkTenant("rijndael-a", core.Rijndael, a),
				mkTenant("rijndael-b", core.Rijndael, b),
				mkTenant("rc6", core.RC6, c),
			}
		},
		gen: func(rng *rand.Rand, _ int, tenants []tenant, n int) []request {
			seq := tenantSequence(rng, n, len(tenants))
			sizes := stratifiedBy(rng, seq, 1<<10, 4<<10, 1)
			reqs := make([]request, n)
			for i := range reqs {
				reqs[i] = request{tenant: seq[i], op: serve.FrameEncrypt, mode: serve.ModeCTR,
					iv: randBytes(rng, 16), data: randBytes(rng, sizes[i])}
			}
			return reqs
		},
		warm: func(int) []warmClass {
			return []warmClass{
				{0, serve.FrameEncrypt, serve.ModeCTR},
				{1, serve.FrameEncrypt, serve.ModeCTR},
				{2, serve.FrameEncrypt, serve.ModeCTR},
			}
		},
	},
	{
		name:  "cbc-duplex",
		flags: farmFlags,
		pass:  192,
		tenants: func(rng *rand.Rand) []tenant {
			return []tenant{mkTenant("rijndael", core.Rijndael, randBytes(rng, 16))}
		},
		gen: func(rng *rand.Rand, client int, _ []tenant, n int) []request {
			dir := make([]int, n)
			for i := range dir {
				dir[i] = (i + client) % 2
			}
			sizes := stratifiedBy(rng, dir, 256, 1536, 16)
			reqs := make([]request, n)
			for i := range reqs {
				op := serve.FrameEncrypt
				if dir[i] == 1 {
					op = serve.FrameDecrypt
				}
				reqs[i] = request{op: op, mode: serve.ModeCBC,
					iv: randBytes(rng, 16), data: randBytes(rng, sizes[i])}
			}
			return reqs
		},
		warm: func(int) []warmClass {
			return []warmClass{
				{0, serve.FrameEncrypt, serve.ModeCBC},
				{0, serve.FrameDecrypt, serve.ModeCBC},
			}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func mkTenant(name string, alg core.Algorithm, key []byte) tenant {
	var ref cipher.Block
	var err error
	switch alg {
	case core.Rijndael:
		ref, err = cipher.NewRijndael(key)
	case core.RC6:
		ref, err = cipher.NewRC6(key)
	default:
		err = fmt.Errorf("no reference for %s", alg)
	}
	if err != nil {
		panic(err) // the key sizes above are fixed; a failure is a bug here
	}
	return tenant{name: name, alg: alg, key: key, ref: ref}
}

// rngFor returns the generator for one part of a workload's inputs
// (tenant keys, a client's stream, the warm-up): a pure function of the
// workload, the seed and the part, so every part is reproducible on its
// own.
func rngFor(w *workload, seed uint64, part string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(w.name + "/" + part))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// inputs is everything a run sends: the tenants and each client's
// stream with its expected responses.
type inputs struct {
	tenants []tenant
	streams [clients][]request
}

// generate builds the workload's inputs for a seed and precomputes every
// expected response from the host references, so the timed loop only
// compares bytes.
func generate(w *workload, seed uint64) *inputs {
	in := &inputs{tenants: w.tenants(rngFor(w, seed, "tenants"))}
	var wg sync.WaitGroup
	for c := range in.streams {
		wg.Add(1)
		go func(c int) { // the reference ciphers are slow; one client per CPU
			defer wg.Done()
			reqs := w.gen(rngFor(w, seed, fmt.Sprintf("client-%d", c)), c, in.tenants, w.pass)
			for i := range reqs {
				fillExpected(&reqs[i], in.tenants[reqs[i].tenant].ref)
			}
			in.streams[c] = reqs
		}(c)
	}
	wg.Wait()
	return in
}

// warmRequests is the warm-up traffic of one client: one request of each
// class, wide enough to reach every worker of the pool, followed by a
// second so a worker that missed the first still does its lazy set-up.
func warmRequests(w *workload, seed uint64, client int, tenants []tenant) []request {
	rng := rngFor(w, seed, fmt.Sprintf("warm-%d", client))
	var reqs []request
	for _, wc := range w.warm(client) {
		for rep := 0; rep < 2; rep++ {
			r := request{tenant: wc.tenant, op: wc.op, mode: wc.mode, data: randBytes(rng, 8*16)}
			if wc.mode != serve.ModeECB {
				r.iv = randBytes(rng, 16)
			}
			fillExpected(&r, tenants[wc.tenant].ref)
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// fillExpected sets r.want from the reference cipher. A DECRYPT request
// carries the reference encryption of fresh plaintext and expects the
// plaintext back.
func fillExpected(r *request, ref cipher.Block) {
	if r.op == serve.FrameDecrypt {
		pt := r.data
		r.data = refEncrypt(ref, r.mode, r.iv, pt)
		r.want = pt
		return
	}
	r.want = refEncrypt(ref, r.mode, r.iv, r.data)
}

func refEncrypt(blk cipher.Block, mode serve.Mode, iv, src []byte) []byte {
	dst := make([]byte, len(src))
	switch mode {
	case serve.ModeECB:
		for off := 0; off < len(src); off += 16 {
			blk.Encrypt(dst[off:], src[off:])
		}
	case serve.ModeCBC:
		var x [16]byte
		prev := iv
		for off := 0; off < len(src); off += 16 {
			for i := range x {
				x[i] = src[off+i] ^ prev[i]
			}
			blk.Encrypt(dst[off:], x[:])
			prev = dst[off : off+16]
		}
	default: // CTR: 128-bit big-endian counter, partial tail block
		var c, ks [16]byte
		copy(c[:], iv)
		for off := 0; off < len(src); off += 16 {
			blk.Encrypt(ks[:], c[:])
			addOne(&c)
			for j := 0; j < 16 && off+j < len(src); j++ {
				dst[off+j] = src[off+j] ^ ks[j]
			}
		}
	}
	return dst
}

// addOne increments a 128-bit big-endian counter.
func addOne(c *[16]byte) {
	for i := 15; i >= 0; i-- {
		c[i]++
		if c[i] != 0 {
			return
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

// stratified draws n sizes in [lo, hi] (multiples of step), one from each
// of n equal strata of the range, in random order. Every seed then sends
// the same size distribution — only order, keys and contents change —
// so a run's cost does not drift with the seed.
func stratified(rng *rand.Rand, n, lo, hi, step int) []int {
	span := float64(hi - lo + step)
	sizes := make([]int, n)
	for i := range sizes {
		s := lo + int((float64(i)+rng.Float64())*span/float64(n))
		s -= (s - lo) % step
		sizes[i] = min(s, hi)
	}
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// stratifiedBy draws sizes as stratified does, separately for each class
// of request (class[i] is request i's class, numbered from 0), so that
// every class, not only the stream as a whole, gets the same size
// distribution for every seed.
func stratifiedBy(rng *rand.Rand, class []int, lo, hi, step int) []int {
	members := map[int][]int{}
	for i, c := range class {
		members[c] = append(members[c], i)
	}
	sizes := make([]int, len(class))
	for c := 0; c < len(members); c++ {
		for j, s := range stratified(rng, len(members[c]), lo, hi, step) {
			sizes[members[c][j]] = s
		}
	}
	return sizes
}

// tenantSequence draws n tenant indices (n a multiple of k, 1 < k < n),
// n/k of each, in which exactly the share (k-1)/k of consecutive pairs
// switch tenant, as uniform draws would on average, so the tenant mix and
// the reconfiguration load are the same for every seed. It reshuffles
// until the switch count is right, which takes a handful of tries.
func tenantSequence(rng *rand.Rand, n, k int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i % k
	}
	for {
		rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		switches := 0
		for i := 1; i < n; i++ {
			if seq[i] != seq[i-1] {
				switches++
			}
		}
		if switches == (n-1)*(k-1)/k {
			return seq
		}
	}
}
