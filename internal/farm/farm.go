// Package farm scales the COBRA reproduction beyond a single device: it
// runs a pool of independently configured core.Device replicas — each
// device drives its own sim.Machine, which is not safe for concurrent use
// — and shards non-feedback workloads across them. The paper's Table 1
// splits modes of operation into feedback and non-feedback precisely
// because the latter admit this replication: in counter mode every
// keystream block E(iv+i) is independent, so a message splits into
// contiguous counter ranges that N devices encrypt concurrently. This is
// the software analogue of tiling several COBRA parts on a board, and the
// same data-parallel mapping the related work applies to replicated SIMON
// cores and programmable-hardware crypto kernels (PAPERS.md).
//
// Dispatch is program-aware (see placer.go): shards are placed on workers
// whose device already holds the tenant's compiled program, and idle
// workers steal work — same-program first. A Farm is always a tenant of
// a Pool: the owner creates the pool with NewPool, opens a Farm per
// algorithm/key/config with Pool.Open (cobrad opens one per tenant key),
// exports the pool's metrics and closes it. Workers write ciphertext
// directly into disjoint regions of the caller's destination buffer, so
// reassembly is ordered by construction, and each job carries its
// caller's context so cancellation and timeouts short-circuit queued
// work.
//
// A Farm implements core.Cipher — the unified API — including both
// directions of every mode. ECB, CTR, and CBC *decryption* shard across
// the pool (CBC decryption is non-feedback: P[k] = D(C[k]) xor C[k-1]
// needs only ciphertext the caller already holds, so shard boundaries
// simply overlap the ciphertext by one block); CBC encryption is the
// feedback mode, serialized onto a single worker (Table 1's FB-column
// penalty made operational). The pool's internal/obs registry (Pool.Obs)
// aggregates its workers' device registries under worker="N" labels plus
// the queue/shard/scheduler series, and each Farm's registry (Farm.Obs)
// holds its per-mode request and error counters; the owner attaches both
// to its export parent, as cobrad does for its -metrics endpoint.
package farm

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"cobra/internal/core"
	"cobra/internal/obs"
	"cobra/internal/sim"
)

// ErrClosed is returned by cipher calls made after Close.
var ErrClosed = errors.New("farm: closed")

// defaultShardBlocks caps a shard at this many 128-bit blocks. Large
// messages therefore split into several jobs per worker, which keeps the
// queue busy (pipelining across shards) at the cost of one pipeline
// fill-and-drain per shard on streaming configurations. That cost is in
// simulated cycles only: the fastpath runs a shard's blocks through its
// trace's batch form, each once, so its host time does not pay the fill
// and drain.
const defaultShardBlocks = 1024

// WorkerQueueDepth is the per-worker queue capacity; dispatch blocks
// (backpressure) once a worker is this many shards behind.
const WorkerQueueDepth = 2

// stealBacklog is the minimum queue depth of a victim worker before an
// idle worker performs a cross-program steal — a steal that costs the
// thief a reconfiguration, so it only pays off against a real backlog.
// Same-program steals have no threshold.
const stealBacklog = 2

type mode int

const (
	modeCTR mode = iota
	modeECB
	modeCBC
	modeDecECB
	modeDecCBC
	modeCount
)

var modeNames = [modeCount]string{"ctr", "ecb", "cbc", "decrypt_ecb", "decrypt_cbc"}

// A job is one contiguous shard of a cipher call: a counter range (or
// IV) plus the matching source and destination windows, tagged with the
// tenant it belongs to (the scheduler routes by tn.pk).
type job struct {
	ctx  context.Context
	tn   *Farm
	mode mode
	iv   [16]byte // starting counter block (CTR) or IV (CBC)
	src  []byte
	dst  []byte
	errc chan<- error
}

// farmMetrics is the tenant-level (per-Farm) instrumentation.
type farmMetrics struct {
	requests [modeCount]*obs.Counter
	errsBy   [modeCount]*obs.Counter
}

func newFarmMetrics(reg *obs.Registry) *farmMetrics {
	m := &farmMetrics{}
	for i, name := range modeNames {
		l := obs.L("mode", name)
		m.requests[i] = reg.Counter("cobra_farm_requests_total", "Farm-level API calls.", l)
		m.errsBy[i] = reg.Counter("cobra_farm_errors_total", "Farm-level API calls that returned an error.", l)
	}
	return m
}

// tenantSlot accumulates one worker's contribution to one tenant.
// Per-call sim.Stats returned by the device *Into methods are summed
// here rather than read back from the device, because a shared worker's
// device is reconfigured between tenants and its own stats view resets.
type tenantSlot struct {
	mu     sync.Mutex
	jobs   int
	busyNs int64
	stats  sim.Stats

	jobsSnap  int
	busySnap  int64
	statsSnap sim.Stats
}

// Farm is one tenant's cipher view of a worker pool. Unlike a single
// Device, a Farm is safe for concurrent use: any number of goroutines
// may call its cipher methods simultaneously and their shards interleave
// across the pool.
type Farm struct {
	pool *Pool

	alg core.Algorithm
	img *core.Image // what every worker loads for this tenant
	pk  progKey

	mhz      float64
	unroll   int
	rows     int
	fastpath bool

	reg *obs.Registry
	met *farmMetrics

	slots []tenantSlot

	mu     sync.Mutex
	calls  sync.WaitGroup
	closed bool
}

// Farm satisfies the unified cipher API (the twin of core's Device
// assertion); farm's cipher_test swap test exercises both through the
// interface.
var _ core.Cipher = (*Farm)(nil)

// Open opens a tenant on the pool: a Farm for one algorithm/key/config
// triple whose shards the scheduler batches onto program-affine workers.
// cfg configures the tenant's devices. The key and config are validated
// eagerly by configuring a probe device, whose image (core.Image) every
// worker then loads for the tenant without compiling it again. The probe
// is donated to a worker that was never bound, while one is left
// (warming the tenant's first placement); after that the pool keeps it
// and reconfigures it for later Opens, under worker="probe" on its
// registry, so every tenant's compile counts there. Opens are serialized.
//
// Closing a tenant Farm does not close the pool; closing the pool
// invalidates its tenants.
func (p *Pool) Open(alg core.Algorithm, key []byte, cfg core.Config) (*Farm, error) {
	p.openMu.Lock()
	defer p.openMu.Unlock()
	probe := p.probe
	var err error
	if probe == nil {
		probe, err = core.Configure(alg, key, cfg)
	} else {
		err = probe.Reconfigure(alg, key, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("farm: configuring device: %w", err)
	}
	f := &Farm{
		pool: p,
		alg:  alg,
		img:  probe.Image(),
		pk: progKey{
			alg:      alg,
			unroll:   cfg.Unroll,
			key:      string(key),
			interp:   cfg.Interpreter,
			validate: cfg.Validate,
		},
		fastpath: probe.UsesFastpath(),
		slots:    make([]tenantSlot, len(p.workers)),
	}
	r := probe.Report()
	f.mhz, f.unroll, f.rows = r.DatapathMHz, r.Unroll, r.Rows
	f.reg = obs.NewRegistry()
	f.met = newFarmMetrics(f.reg)

	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return nil, ErrClosed
	}
	if probe == p.probe {
		// Kept only once every worker was bound, and bindings are never
		// cleared: there is no one to donate it to.
		return f, nil
	}
	// Donate the probe to a never-bound worker and bind it, so the
	// tenant's first shards land on an already-configured device.
	p.mu.Lock()
	i, gifted := p.pl.Gift(f.pk)
	if gifted {
		w := p.workers[i]
		w.dev = probe
		w.loaded, w.loadedSet = f.pk, true
	}
	p.mu.Unlock()
	if gifted {
		p.reg.Attach(probe.Obs(), obs.L("worker", strconv.Itoa(i)))
	} else {
		p.probe = probe
		p.reg.Attach(probe.Obs(), obs.L("worker", "probe"))
	}
	return f, nil
}

// Algorithm returns the configured algorithm.
func (f *Farm) Algorithm() core.Algorithm { return f.alg }

// BlockSize returns the cipher block size in bytes.
func (f *Farm) BlockSize() int { return 16 }

// Workers returns the pool size.
func (f *Farm) Workers() int { return f.pool.Workers() }

// Obs returns the tenant's metrics registry (per-mode request/error
// counters). The pool's registry is shared state its owner exports.
func (f *Farm) Obs() *obs.Registry { return f.reg }

// QueueDepth reports the pool's queued-shard total (the cobrad
// admission signal).
func (f *Farm) QueueDepth() int { return f.pool.QueueDepth() }

// QueueCapacity reports the saturation point of QueueDepth.
func (f *Farm) QueueCapacity() int { return f.pool.QueueCapacity() }

// UsesFastpath reports whether this tenant's program serves bulk
// encryption on the trace-compiled executor (probed at Open; the
// workers are replicas, so one answer covers the pool).
func (f *Farm) UsesFastpath() bool { return f.fastpath }

// account records one finished job's contribution to this tenant's
// report. Called from worker goroutines.
func (f *Farm) account(idx int, st sim.Stats, busyNs int64) {
	s := &f.slots[idx]
	s.mu.Lock()
	s.jobs++
	s.busyNs += busyNs
	s.stats.Add(st)
	s.mu.Unlock()
}

// span is a half-open byte range of one shard.
type span struct{ off, end int }

// shards splits n bytes into contiguous block-aligned spans: one per
// worker when the message is small, capped at the pool's shardBlocks so
// large messages pipeline through the queues.
func (f *Farm) shards(n int) []span {
	nb := (n + 15) / 16
	per := (nb + f.pool.Workers() - 1) / f.pool.Workers()
	if per > f.pool.shardBlocks {
		per = f.pool.shardBlocks
	}
	var out []span
	for off := 0; off < n; off += per * 16 {
		end := off + per*16
		if end > n {
			end = n
		}
		out = append(out, span{off, end})
	}
	return out
}

// dispatch fans the given shards of one call out over the pool's
// scheduler and waits for every dispatched shard to report back. mk
// fills in the mode-specific job fields for a shard.
func (f *Farm) dispatch(ctx context.Context, src, dst []byte, shards []span, mk func(span) (job, error)) error {
	if len(src) == 0 {
		return ctx.Err()
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.calls.Add(1)
	f.mu.Unlock()
	defer f.calls.Done()

	p := f.pool
	p.closeMu.RLock()
	if p.closed {
		p.closeMu.RUnlock()
		return ErrClosed
	}
	errc := make(chan error, len(shards))
	used := make([]bool, p.Workers()) // workers this call already landed on
	sent := 0
	var firstErr error
	for _, s := range shards {
		j, err := mk(s)
		if err != nil {
			firstErr = err
			break
		}
		j.ctx, j.tn, j.src, j.dst, j.errc = ctx, f, src[s.off:s.end], dst[s.off:s.end], errc
		sp := p.met.queueWait.Start()
		err = p.place(ctx, j, used)
		sp.End()
		if err != nil {
			firstErr = err
			break
		}
		sent++
		p.met.shards.Inc()
		p.met.shardSize.Observe(int64((s.end - s.off + 15) / 16))
	}
	p.closeMu.RUnlock()
	// Drain every dispatched shard, even after an error: workers always
	// reply, so this cannot deadlock, and it keeps dst ownership clean.
	for i := 0; i < sent; i++ {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// finish closes out one farm-level call's accounting.
func (f *Farm) finish(md mode, err error) {
	if err != nil {
		f.met.errsBy[md].Inc()
	}
}

// EncryptCTR encrypts src in counter mode with initial counter block iv
// (16 bytes), sharding the counter range across the pool: shard k starting
// at block offset b is keyed by counter iv+b, so the farm's output is
// byte-identical to a single device's EncryptCTR. src may end in a partial
// block. ctx cancels or times out the call; queued shards short-circuit,
// and the in-flight ones finish their simulation before the call returns.
func (f *Farm) EncryptCTR(ctx context.Context, iv, src []byte) ([]byte, error) {
	f.met.requests[modeCTR].Inc()
	if len(iv) != 16 {
		f.met.errsBy[modeCTR].Inc()
		return nil, fmt.Errorf("farm: iv must be 16 bytes")
	}
	dst := make([]byte, len(src))
	err := f.dispatch(ctx, src, dst, f.shards(len(src)), func(s span) (job, error) {
		ctr, err := core.AddCounter(iv, uint64(s.off/16))
		if err != nil {
			return job{}, err
		}
		return job{mode: modeCTR, iv: ctr}, nil
	})
	f.finish(modeCTR, err)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// DecryptCTR inverts EncryptCTR; counter mode is an involution.
func (f *Farm) DecryptCTR(ctx context.Context, iv, src []byte) ([]byte, error) {
	return f.EncryptCTR(ctx, iv, src)
}

// EncryptECB encrypts src (a multiple of 16 bytes) in electronic-codebook
// mode, sharding by block range — ECB is the paper's measurement mode and
// the other non-feedback workload of Table 1.
func (f *Farm) EncryptECB(ctx context.Context, src []byte) ([]byte, error) {
	f.met.requests[modeECB].Inc()
	if len(src)%16 != 0 {
		f.met.errsBy[modeECB].Inc()
		return nil, fmt.Errorf("farm: input length %d is not a multiple of the block size", len(src))
	}
	dst := make([]byte, len(src))
	err := f.dispatch(ctx, src, dst, f.shards(len(src)), func(span) (job, error) {
		return job{mode: modeECB}, nil
	})
	f.finish(modeECB, err)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// DecryptECB inverts EncryptECB on the decryption datapath. Decryption
// in ECB is as shardable as encryption — every block is independent —
// so it fans out exactly like EncryptECB.
func (f *Farm) DecryptECB(ctx context.Context, src []byte) ([]byte, error) {
	f.met.requests[modeDecECB].Inc()
	if len(src)%16 != 0 {
		f.met.errsBy[modeDecECB].Inc()
		return nil, fmt.Errorf("farm: input length %d is not a multiple of the block size", len(src))
	}
	dst := make([]byte, len(src))
	err := f.dispatch(ctx, src, dst, f.shards(len(src)), func(span) (job, error) {
		return job{mode: modeDecECB}, nil
	})
	f.finish(modeDecECB, err)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// EncryptCBC encrypts src in cipher-block-chaining mode. CBC encryption
// is a feedback mode — each block depends on the previous ciphertext —
// so the message cannot shard: the whole call is a single job serialized
// onto one worker, and throughput degrades to a single device's
// fill+drain-per-block rate exactly as the paper's Table 1 FB column
// predicts. That rate is in simulated cycles; on the fastpath a 1-block
// call runs its block through the batch form once, so the host does not
// pay the fill and drain a second time. The farm still provides it so the
// unified Cipher surface is mode-complete on every backend.
func (f *Farm) EncryptCBC(ctx context.Context, iv, src []byte) ([]byte, error) {
	f.met.requests[modeCBC].Inc()
	if len(iv) != 16 {
		f.met.errsBy[modeCBC].Inc()
		return nil, fmt.Errorf("farm: iv must be 16 bytes")
	}
	if len(src)%16 != 0 {
		f.met.errsBy[modeCBC].Inc()
		return nil, fmt.Errorf("farm: input length %d is not a multiple of the block size", len(src))
	}
	dst := make([]byte, len(src))
	var ivb [16]byte
	copy(ivb[:], iv)
	err := f.dispatch(ctx, src, dst, []span{{0, len(src)}}, func(span) (job, error) {
		return job{mode: modeCBC, iv: ivb}, nil
	})
	f.finish(modeCBC, err)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// DecryptCBC inverts EncryptCBC. Unlike the encryption direction, CBC
// decryption is *not* a feedback mode: P[k] = D(C[k]) xor C[k-1] needs
// only the previous ciphertext block, which the caller already holds in
// src — so the message shards across the pool like ECB, with each
// shard's chaining IV taken from the ciphertext one block before its
// boundary (the call IV for the first shard).
func (f *Farm) DecryptCBC(ctx context.Context, iv, src []byte) ([]byte, error) {
	f.met.requests[modeDecCBC].Inc()
	if len(iv) != 16 {
		f.met.errsBy[modeDecCBC].Inc()
		return nil, fmt.Errorf("farm: iv must be 16 bytes")
	}
	if len(src)%16 != 0 {
		f.met.errsBy[modeDecCBC].Inc()
		return nil, fmt.Errorf("farm: input length %d is not a multiple of the block size", len(src))
	}
	dst := make([]byte, len(src))
	err := f.dispatch(ctx, src, dst, f.shards(len(src)), func(s span) (job, error) {
		j := job{mode: modeDecCBC}
		if s.off == 0 {
			copy(j.iv[:], iv)
		} else {
			copy(j.iv[:], src[s.off-16:s.off])
		}
		return j, nil
	})
	f.finish(modeDecCBC, err)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// Close invalidates the tenant; the pool keeps serving its other
// tenants. Calls already dispatching finish normally; calls made after
// Close return ErrClosed. Idempotent.
func (f *Farm) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.calls.Wait()
	return nil
}

// WorkerReport is one worker's accumulated counters for this tenant.
type WorkerReport struct {
	Jobs   int       `json:"jobs"`
	BusyNs int64     `json:"busy_ns"`
	Stats  sim.Stats `json:"stats"`
}

// Report aggregates the tenant's counters: the backend-independent
// core.Summary (Stats totals the workers) plus the farm-only breakdown.
// With every device clocked alike, WallCycles — the busiest worker's
// datapath cycles — is the simulated wall-clock of the farm, so
// ThroughputMbps = output bits / (WallCycles / DatapathMHz) is the
// aggregate simulated throughput: N ideally-scaling workers multiply a
// single device's Table 3 rate by N. Field names and JSON tags are a
// stable reporting surface (pinned by the golden test in report_test.go).
type Report struct {
	core.Summary
	PerWorker  []WorkerReport `json:"per_worker"`
	WallCycles int            `json:"wall_cycles"`
}

// Report snapshots the tenant's counters; safe to call while jobs are
// in flight. Stats are summed from the per-call sim.Stats each device
// run returns (not read back from devices, which a shared pool
// reconfigures between tenants).
func (f *Farm) Report() Report {
	r := Report{Summary: core.Summary{
		Algorithm:   f.alg,
		Backend:     "farm",
		Workers:     f.pool.Workers(),
		Unroll:      f.unroll,
		Rows:        f.rows,
		DatapathMHz: f.mhz,
	}}
	for i := range f.slots {
		s := &f.slots[i]
		s.mu.Lock()
		wr := WorkerReport{
			Jobs:   s.jobs - s.jobsSnap,
			BusyNs: s.busyNs - s.busySnap,
			Stats:  s.stats.Delta(s.statsSnap),
		}
		s.mu.Unlock()
		r.PerWorker = append(r.PerWorker, wr)
		r.Stats.Add(wr.Stats)
		if wr.Stats.Cycles > r.WallCycles {
			r.WallCycles = wr.Stats.Cycles
		}
	}
	if r.Stats.BlocksOut > 0 {
		r.CyclesPerBlock = float64(r.Stats.Cycles) / float64(r.Stats.BlocksOut)
	}
	if r.WallCycles > 0 {
		r.ThroughputMbps = float64(r.Stats.BlocksOut) * 128 * f.mhz / float64(r.WallCycles)
	}
	return r
}

// Summary returns the backend-independent view of Report (the Cipher
// accessor).
func (f *Farm) Summary() core.Summary { return f.Report().Summary }

// ResetStats rewinds the tenant's report view between measurement
// phases without disturbing exported /metrics series (which stay
// monotonic). Safe while jobs are in flight.
func (f *Farm) ResetStats() {
	for i := range f.slots {
		s := &f.slots[i]
		s.mu.Lock()
		s.jobsSnap = s.jobs
		s.busySnap = s.busyNs
		s.statsSnap = s.stats
		s.mu.Unlock()
	}
}
