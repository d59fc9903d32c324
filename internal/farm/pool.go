// The worker pool and its program-aware scheduler.
//
// A Pool owns N workers, each the exclusive driver of one core.Device
// (a device is single-threaded silicon). Tenants — Farm values
// opened on the pool — dispatch shards into per-worker run queues
// through a Placer (placer.go) that knows which program each worker is
// bound to. Reconfiguring a device is the expensive operation in this
// system: like a COBRA part switching ciphers (§1), the worker reloads
// the tenant's microcode and pays its configuration phase, simulated
// cycles the paper's agility story counts. On the host a switch is
// cheap — the worker loads the image its tenant compiled once at Open
// (core.Image), counting the phase the image recorded rather than
// compiling or simulating anything — but the simulated phase remains,
// so the scheduler's whole job is to amortize it: keep each
// worker on its bound program as long as there is same-program work,
// steal same-program work from a sibling's queue before anything else,
// and only pay a reconfiguration when a genuine backlog (stealBacklog)
// or a cold tenant justifies it. An idle worker blocks on its wake channel
// and keeps its configured device, so idling costs neither cycles nor a
// later reconfiguration.
package farm

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"cobra/internal/core"
	"cobra/internal/obs"
	"cobra/internal/sim"
)

// progKey identifies one loaded program configuration — the unit of
// scheduler affinity. Two jobs with equal progKeys can run back-to-back
// on one device with no reconfiguration between them.
type progKey struct {
	alg      core.Algorithm
	unroll   int
	key      string
	validate bool
}

// worker is one pool slot: a goroutine and its exclusively-owned
// device. Its scheduler state (queue, binding, running) is the matching
// Slot of Pool.pl.
//
// Two domains of state coexist here. loaded/loadedSet are guarded by
// Pool.mu. The device (dev) is touched only by the worker's own
// goroutine after startup — the one exception is Pool.Open gifting its
// probe device to a never-bound worker, which happens under mu while
// the worker provably isn't executing, and is published to the worker
// goroutine by the mu acquire in its next pick.
type worker struct {
	idx  int
	wake chan struct{} // buffered 1: placement signal

	loaded    progKey // program actually on the device
	loadedSet bool

	dev *core.Device

	jobs   *obs.Counter
	errs   *obs.Counter
	busyNs *obs.Counter

	// fault is a test hook: when non-nil it runs before the device (and
	// before device configuration) and its error is the job's outcome.
	fault func(j *job) error
}

// poolMetrics is the pool-level scheduler instrumentation.
type poolMetrics struct {
	shards     *obs.Counter
	shardSize  *obs.Histogram
	queueWait  *obs.Timer
	affinity   *obs.Counter
	stealsSame *obs.Counter
	stealsX    *obs.Counter
	rebinds    *obs.Counter
	reconfigs  *obs.Counter
}

func newPoolMetrics(reg *obs.Registry) *poolMetrics {
	return &poolMetrics{
		shards: reg.Counter("cobra_farm_shards_total",
			"Shards dispatched to worker queues."),
		shardSize: reg.Histogram("cobra_farm_shard_blocks",
			"Size of dispatched shards in 128-bit blocks.", obs.BlockBuckets()),
		queueWait: reg.Timer("cobra_farm_queue_wait_ns",
			"Time dispatch spent placing one shard on a worker queue (backpressure when large)."),
		affinity: reg.Counter("cobra_farm_affinity_hits_total",
			"Jobs that ran on a device already holding their program (no reconfiguration)."),
		stealsSame: reg.Counter("cobra_farm_steals_total",
			"Jobs stolen from a sibling queue by an idle worker.", obs.L("kind", "program")),
		stealsX: reg.Counter("cobra_farm_steals_total",
			"Jobs stolen from a sibling queue by an idle worker.", obs.L("kind", "cross")),
		rebinds: reg.Counter("cobra_farm_rebinds_total",
			"Workers re-routed from one program to another by placement or stealing."),
		reconfigs: reg.Counter("cobra_farm_reconfigures_total",
			"Device reconfigurations paid to switch a worker's loaded program."),
	}
}

// Pool is a set of workers shared by any number of tenants (Farms).
// Every method is safe for concurrent use.
type Pool struct {
	// shardBlocks caps a shard's size in blocks: ShardBlocks, which
	// tests shrink to force many shard boundaries.
	shardBlocks int

	reg *obs.Registry
	met *poolMetrics

	// closeMu serializes Close against dispatch: a dispatch holds the
	// read side for the whole placement loop, so once Close holds the
	// write side no new shards can enter the queues.
	closeMu sync.RWMutex
	closed  bool // guarded by closeMu

	mu       sync.Mutex // scheduler state: pl and the workers' loaded programs
	pl       Placer[progKey, job]
	workers  []*worker
	space    chan struct{} // closed+remade whenever queue capacity frees
	draining bool

	closeCh chan struct{}
	wg      sync.WaitGroup

	// openMu serializes Open. probe, guarded by it, is the device Open
	// configures once every worker is bound (see Open); nil until then.
	openMu sync.Mutex
	probe  *core.Device
}

// NewPool starts a pool of the given number of workers, the replicated
// devices. Tenants are opened on it with Pool.Open. The owner exports
// the pool's metrics (attach Obs to a parent registry) and shuts it down
// with Close; closing a tenant Farm never closes its pool.
func NewPool(workers int) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("farm: need at least 1 worker, got %d", workers)
	}
	p := &Pool{
		shardBlocks: ShardBlocks,
		reg:         obs.NewRegistry(obs.L("backend", "farm")),
		space:       make(chan struct{}),
		closeCh:     make(chan struct{}),
	}
	p.met = newPoolMetrics(p.reg)
	p.pl = Placer[progKey, job]{
		Workers:       make([]Slot[progKey, job], workers),
		Key:           func(j job) progKey { return j.tn.pk },
		Rebinds:       p.met.rebinds,
		ProgramSteals: p.met.stealsSame,
		CrossSteals:   p.met.stealsX,
	}
	for i := 0; i < workers; i++ {
		wl := obs.L("worker", strconv.Itoa(i))
		w := &worker{
			idx:  i,
			wake: make(chan struct{}, 1),
			jobs: p.reg.Counter("cobra_farm_worker_jobs_total",
				"Jobs completed per worker.", wl),
			errs: p.reg.Counter("cobra_farm_worker_errors_total",
				"Jobs that failed (or were cancelled) per worker.", wl),
			busyNs: p.reg.Counter("cobra_farm_worker_busy_ns_total",
				"Wall-clock nanoseconds each worker spent executing jobs (utilization numerator).", wl),
		}
		p.reg.GaugeFunc("cobra_farm_queue_depth",
			"Shards waiting in each worker's queue.",
			func() int64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				return int64(len(p.pl.Workers[i].Queue))
			}, wl)
		p.workers = append(p.workers, w)
	}
	p.reg.Gauge("cobra_farm_workers", "Pool size.").Set(int64(workers))
	for _, w := range p.workers {
		p.wg.Add(1)
		go p.runWorker(w)
	}
	return p, nil
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.workers) }

// Obs returns the pool's metrics registry: scheduler series plus every
// worker's device registry under worker="N" labels.
func (p *Pool) Obs() *obs.Registry { return p.reg }

// QueueDepth returns the number of shards waiting in worker queues (the
// sum of the per-worker cobra_farm_queue_depth gauges). It is the
// admission signal cmd/cobrad sheds load on: at QueueCapacity the next
// dispatch would block on backpressure, so a server can answer BUSY
// instead of queueing behind it.
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, s := range p.pl.Workers {
		n += len(s.Queue)
	}
	return n
}

// QueueCapacity returns the total queued-shard capacity of the pool —
// the saturation point of QueueDepth.
func (p *Pool) QueueCapacity() int { return len(p.workers) * WorkerQueueDepth }

// place queues one shard on the worker the placer chooses, blocking
// (backpressure) until capacity frees or ctx is done. used is the
// per-call set of workers earlier shards of the same call were placed
// on (see Placer.Place). The caller must hold closeMu.RLock.
func (p *Pool) place(ctx context.Context, j job, used []bool) error {
	for {
		p.mu.Lock()
		if i, ok := p.pl.Place(j, used); ok {
			wakeLocked(p.workers[i])
			// A shard queued behind a running worker is a steal
			// opportunity: wake the idle siblings so one of them can
			// take it (the target itself won't look again until its
			// current job ends).
			if p.pl.Workers[i].Running {
				for k, o := range p.workers {
					if k != i && p.pl.Workers[k].idle() {
						wakeLocked(o)
					}
				}
			}
			p.mu.Unlock()
			return nil
		}
		space := p.space
		p.mu.Unlock()
		select {
		case <-space:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// wakeLocked sends the worker its (non-blocking, buffered-1) placement
// token. Callers hold p.mu.
func wakeLocked(w *worker) {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// signalSpaceLocked wakes every dispatcher blocked on pool capacity by
// closing and remaking the broadcast channel. Callers hold p.mu.
func (p *Pool) signalSpaceLocked() {
	close(p.space)
	p.space = make(chan struct{})
}

// runWorker is one worker goroutine: pick (or steal) a job, run it,
// answer it, repeat; block on the wake channel when idle, exit when the
// pool drains on Close.
// The job's error is sent only after the worker has returned to the idle
// state under mu, so a single sequential caller observes deterministic
// placement (by the time dispatch returns, every worker it used is idle
// again).
func (p *Pool) runWorker(w *worker) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		j, ok := p.pl.Pick(w.idx)
		if ok {
			p.pl.Workers[w.idx].Running = true
			p.signalSpaceLocked()
			p.mu.Unlock()
			err := p.execute(w, &j)
			p.mu.Lock()
			p.pl.Workers[w.idx].Running = false
			p.signalSpaceLocked()
			p.mu.Unlock()
			j.errc <- err
			continue
		}
		draining := p.draining
		p.mu.Unlock()
		if draining {
			return
		}
		select {
		case <-w.wake:
		case <-p.closeCh:
		}
	}
}

// execute runs one job on the worker's device, configuring or
// reconfiguring it first if it doesn't hold the job's program. The test
// fault hook runs before device setup so tests can stall or fail a
// worker without a device existing.
func (p *Pool) execute(w *worker, j *job) error {
	if err := j.ctx.Err(); err != nil {
		// The caller gave up; skip the simulation, not the reply.
		w.errs.Inc()
		return err
	}
	var err error
	t0 := time.Now()
	if w.fault != nil {
		err = w.fault(j)
	}
	var st sim.Stats
	if err == nil {
		p.ensure(w, j.tn)
		switch j.mode {
		case modeCTR:
			st, err = w.dev.EncryptCTRInto(j.ctx, j.dst, j.iv[:], j.src)
		case modeECB:
			st, err = w.dev.EncryptECBInto(j.ctx, j.dst, j.src)
		case modeCBC:
			st, err = w.dev.EncryptCBCInto(j.ctx, j.dst, j.iv[:], j.src)
		case modeDecECB:
			st, err = w.dev.DecryptECBInto(j.ctx, j.dst, j.src)
		case modeDecCBC:
			st, err = w.dev.DecryptCBCInto(j.ctx, j.dst, j.iv[:], j.src)
		}
	}
	busy := time.Since(t0).Nanoseconds()
	w.busyNs.Add(busy)
	w.jobs.Inc()
	if err != nil {
		w.errs.Inc()
	}
	j.tn.account(w.idx, st, busy)
	return err
}

// ensure makes the worker's device hold the tenant's program, loading
// the tenant's image on a new device (first job on this worker) or on
// the worker's device (a reconfiguration) as needed. Either way the
// image's recorded configuration phase is counted, and nothing is
// compiled or simulated. Runs on the worker goroutine.
func (p *Pool) ensure(w *worker, tn *Farm) {
	if w.dev != nil && w.loadedSet && w.loaded == tn.pk {
		p.met.affinity.Inc()
		return
	}
	if w.dev == nil {
		w.dev = core.NewDevice(tn.img)
		p.reg.Attach(w.dev.Obs(), obs.L("worker", strconv.Itoa(w.idx)))
	} else {
		p.met.reconfigs.Inc()
		w.dev.Load(tn.img)
	}
	p.mu.Lock()
	w.loaded, w.loadedSet = tn.pk, true
	p.mu.Unlock()
}

// Close drains the queues and stops the workers. Dispatches already
// placing shards finish normally; later dispatches return ErrClosed.
// Idempotent.
func (p *Pool) Close() error {
	p.closeMu.Lock()
	wasClosed := p.closed
	p.closed = true
	p.closeMu.Unlock()
	if wasClosed {
		p.wg.Wait()
		return nil
	}
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
	close(p.closeCh)
	p.wg.Wait()
	return nil
}
