// The worker pool and its program-aware scheduler.
//
// A Pool owns N workers, each the exclusive driver of one core.Device
// (a sim.Machine is single-threaded silicon). Tenants — Farm values
// opened on the pool — dispatch shards into per-worker run queues
// through a placement function that knows which program each device
// currently holds. Reconfiguring a device (microcode compile plus
// fastpath trace recording) is the expensive operation in this system,
// so the scheduler's whole job is to amortize it: keep each worker on
// its bound program as long as there is same-program work, steal
// same-program work from a sibling's queue before anything else, and
// only pay a reconfiguration when a genuine backlog (stealBacklog) or a
// cold tenant justifies it. An idle worker blocks on its wake channel
// and keeps its configured device, so idling costs neither cycles nor a
// later reconfiguration.
package farm

import (
	"context"
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
	interp   bool
	validate bool
}

// worker is one pool slot: a goroutine, its exclusively-owned device,
// and its slice of the run queue.
//
// Two domains of state coexist here. Scheduler state (q, bound/boundSet,
// running, loaded/loadedSet) is guarded by Pool.mu. Device state
// (dev) is touched only by the worker's own goroutine after startup —
// the one exception is Pool.Open gifting its probe device to an idle
// device-less worker, which happens under mu while the worker provably
// isn't executing, and is published to the worker goroutine by the mu
// acquire in its next pick.
type worker struct {
	idx  int
	wake chan struct{} // buffered 1: placement signal

	q         []job
	bound     progKey // program the scheduler routes here
	boundSet  bool
	loaded    progKey // program actually on the device
	loadedSet bool
	running   bool

	dev *core.Device

	jobs   *obs.Counter
	errs   *obs.Counter
	busyNs *obs.Counter

	// fault is a test hook: when non-nil it runs before the device (and
	// before device configuration) and its error is the job's outcome.
	fault func(j *job) error
}

// idleLocked reports whether the worker has nothing queued or running.
func (w *worker) idleLocked() bool { return !w.running && len(w.q) == 0 }

// loadLocked counts the worker's queued jobs plus the one it is running.
func (w *worker) loadLocked() int {
	if w.running {
		return len(w.q) + 1
	}
	return len(w.q)
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

// SchedStats is the scheduler counter snapshot (a programmatic view of
// the cobra_farm_* scheduler series, used by benches and tests).
type SchedStats struct {
	AffinityHits  int64 `json:"affinity_hits"`
	ProgramSteals int64 `json:"program_steals"`
	CrossSteals   int64 `json:"cross_steals"`
	Rebinds       int64 `json:"rebinds"`
	Reconfigures  int64 `json:"reconfigures"`
}

// Pool is a set of workers shared by any number of tenants (Farms).
// Every method is safe for concurrent use.
type Pool struct {
	opts Options
	// shardBlocks caps a shard's size in blocks: defaultShardBlocks,
	// which tests shrink to force many shard boundaries.
	shardBlocks int

	reg *obs.Registry
	met *poolMetrics

	// closeMu serializes Close against dispatch: a dispatch holds the
	// read side for the whole placement loop, so once Close holds the
	// write side no new shards can enter the queues.
	closeMu sync.RWMutex
	closed  bool // guarded by closeMu

	mu       sync.Mutex // scheduler state: queues, bindings
	workers  []*worker
	rr       int           // roundrobin policy cursor
	space    chan struct{} // closed+remade whenever queue capacity frees
	draining bool

	closeCh chan struct{}
	wg      sync.WaitGroup
}

// NewPool starts a worker pool. Tenants are opened on it with
// Pool.Open. The owner exports the pool's metrics (attach Obs to a
// parent registry) and shuts it down with Close; closing a tenant Farm
// never closes its pool.
func NewPool(opts Options) (*Pool, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Pool{
		opts:        o,
		shardBlocks: defaultShardBlocks,
		reg:         obs.NewRegistry(obs.L("backend", "farm")),
		space:       make(chan struct{}),
		closeCh:     make(chan struct{}),
	}
	p.met = newPoolMetrics(p.reg)
	for i := 0; i < o.Workers; i++ {
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
		ww := w
		p.reg.GaugeFunc("cobra_farm_queue_depth",
			"Shards waiting in each worker's queue.",
			func() int64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				return int64(len(ww.q))
			}, wl)
		p.workers = append(p.workers, w)
	}
	p.reg.Gauge("cobra_farm_workers", "Pool size.").Set(int64(o.Workers))
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
	for _, w := range p.workers {
		n += len(w.q)
	}
	return n
}

// QueueCapacity returns the total queued-shard capacity of the pool —
// the saturation point of QueueDepth.
func (p *Pool) QueueCapacity() int { return len(p.workers) * workerQueueDepth }

// SchedStats snapshots the scheduler counters.
func (p *Pool) SchedStats() SchedStats {
	m := p.met
	return SchedStats{
		AffinityHits:  m.affinity.Value(),
		ProgramSteals: m.stealsSame.Value(),
		CrossSteals:   m.stealsX.Value(),
		Rebinds:       m.rebinds.Value(),
		Reconfigures:  m.reconfigs.Value(),
	}
}

// place queues one shard on a worker chosen by the scheduling policy,
// blocking (backpressure) until capacity frees or ctx is done. used is
// the per-call set of workers earlier shards of the same call were
// placed on; the chosen worker is marked in it. The caller must hold
// closeMu.RLock.
func (p *Pool) place(ctx context.Context, j job, used []bool) error {
	for {
		p.mu.Lock()
		w := p.chooseLocked(j.tn.pk, used)
		if w != nil {
			used[w.idx] = true
			w.q = append(w.q, j)
			wakeLocked(w)
			// A shard queued behind a running worker is a steal
			// opportunity: wake the idle siblings so one of them can
			// take it (the target itself won't look again until its
			// current job ends).
			if w.running && p.opts.Policy == PolicyAffinity {
				for _, o := range p.workers {
					if o != w && o.idleLocked() {
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

// chooseLocked is the placement function: it returns the worker the next
// shard of program pk should queue on, or nil when the pool is saturated
// and the dispatcher must wait for space. Callers hold p.mu.
//
// Under the affinity policy placement runs in two passes. The first
// excludes workers earlier shards of the same call already landed on:
// one call's shards are the unit of Table 1 parallelism, and without the
// exclusion a hot worker that finishes shard k before shard k+1 is
// placed would attract the whole message and serialize the simulated
// wall-clock (program affinity is a cross-call economy, not an
// intra-call one). The second pass drops the exclusion so a call with
// more shards than workers still queues everywhere.
func (p *Pool) chooseLocked(pk progKey, used []bool) *worker {
	if p.opts.Policy == PolicyRoundRobin {
		w := p.workers[p.rr%len(p.workers)]
		if len(w.q) >= workerQueueDepth {
			return nil
		}
		p.rr++
		p.rebindLocked(w, pk)
		return w
	}
	if w := p.affinityLocked(pk, used); w != nil {
		return w
	}
	return p.affinityLocked(pk, nil)
}

// affinityLocked applies the affinity policy's preference order over the
// workers not excluded by avoid (nil excludes none). The order encodes
// the cost model — a reconfiguration (microcode compile + fastpath trace
// recording) is worth avoiding above all else:
//
//  1. an idle worker bound to pk (free: device is hot)
//  2. an idle worker with no binding yet (pays one cold configure,
//     never a reconfigure)
//  3. queue behind the least-loaded pk-bound worker with space
//
// Load counts a running job as well as the queue (loadLocked). A worker
// handed a shard that its goroutine has not yet picked up is then no
// cheaper than one already running a shard, so a call's shards do not
// pile a backlog of stealBacklog behind a running worker while its
// sibling waits to be scheduled — the backlog an idle worker of another
// program cross-steals, paying a reconfiguration there and another when
// the next call claims the worker back.
//
// The remaining rules run only without an avoid set (the second pass)
// AND when pk has no bound worker with room — rebinding another
// program's worker is never worth it just to spread one call wider.
// Even then a rebind must be earned by fairness: pk may claim a worker
// only from a program holding at least two more workers than pk does
// (the claim still leaves the victim no worse off than pk, so every
// claim strictly narrows the imbalance — the partition converges to
// fair shares and then stays put, instead of tenants ping-ponging
// workers and paying a reconfiguration per swing). A cold program with
// no binding at all (more tenants than workers) may claim from anyone
// rather than starve. Among claimable workers:
//
//  4. rebind an idle claimable worker
//  5. queue behind the least-loaded claimable worker with space
func (p *Pool) affinityLocked(pk progKey, avoid []bool) *worker {
	skip := func(w *worker) bool { return avoid != nil && avoid[w.idx] }
	for _, w := range p.workers {
		if !skip(w) && w.idleLocked() && w.boundSet && w.bound == pk {
			return w
		}
	}
	for _, w := range p.workers {
		if !skip(w) && w.idleLocked() && !w.boundSet {
			w.bound, w.boundSet = pk, true
			return w
		}
	}
	var best *worker
	for _, w := range p.workers {
		if !skip(w) && w.boundSet && w.bound == pk && len(w.q) < workerQueueDepth {
			if best == nil || w.loadLocked() < best.loadLocked() {
				best = w
			}
		}
	}
	if best != nil {
		return best
	}
	if avoid != nil {
		return nil // spreading a call never justifies a rebind
	}
	counts := make(map[progKey]int, len(p.workers))
	for _, w := range p.workers {
		if w.boundSet {
			counts[w.bound]++
		}
	}
	need := counts[pk] + 2
	if counts[pk] == 0 {
		need = 1 // cold program: claim from anyone rather than starve
	}
	claim := func(w *worker) bool {
		return !w.boundSet || (w.bound != pk && counts[w.bound] >= need)
	}
	for _, w := range p.workers {
		if w.idleLocked() && claim(w) {
			p.rebindLocked(w, pk)
			return w
		}
	}
	best = nil
	for _, w := range p.workers {
		if claim(w) && len(w.q) < workerQueueDepth {
			if best == nil || w.loadLocked() < best.loadLocked() {
				best = w
			}
		}
	}
	if best != nil {
		p.rebindLocked(best, pk)
		return best
	}
	return nil // wait: pk's fair share of the pool is already working for it
}

func (p *Pool) rebindLocked(w *worker, pk progKey) {
	if w.boundSet && w.bound != pk {
		p.met.rebinds.Inc()
	}
	w.bound, w.boundSet = pk, true
}

// pickLocked takes the worker's next job: its own queue head first, then
// — under the affinity policy — a steal. Only workers currently running a
// job are valid victims: an idle victim is microseconds from picking its
// own queue, and stealing from it would serialize onto the thief work
// the scheduler had already spread (it would also make placement racy,
// which the fastpath-vs-interpreter aggregate-stats equality depends
// on). Same-program steals (the victim's tail job runs on w without
// reconfiguration) have no threshold; cross-program steals pay a
// reconfiguration and therefore require the victim to be at least
// stealBacklog deep. Stealing from the tail leaves the head for the
// victim, which preserves FIFO order per queue (order between shards of
// one call is irrelevant — they write disjoint dst windows).
func (p *Pool) pickLocked(w *worker) (job, bool) {
	if len(w.q) > 0 {
		j := w.q[0]
		w.q = w.q[1:]
		if len(w.q) == 0 {
			w.q = nil
		}
		return j, true
	}
	if p.opts.Policy != PolicyAffinity {
		return job{}, false
	}
	var victim *worker
	if w.boundSet {
		for _, v := range p.workers {
			if v == w || !v.running || len(v.q) == 0 {
				continue
			}
			if v.q[len(v.q)-1].tn.pk == w.bound && (victim == nil || len(v.q) > len(victim.q)) {
				victim = v
			}
		}
		if victim != nil {
			j := victim.q[len(victim.q)-1]
			victim.q = victim.q[:len(victim.q)-1]
			p.met.stealsSame.Inc()
			return j, true
		}
	}
	for _, v := range p.workers {
		if v == w || !v.running || len(v.q) < stealBacklog {
			continue
		}
		if victim == nil || len(v.q) > len(victim.q) {
			victim = v
		}
	}
	if victim != nil {
		j := victim.q[len(victim.q)-1]
		victim.q = victim.q[:len(victim.q)-1]
		p.met.stealsX.Inc()
		p.rebindLocked(w, j.tn.pk)
		return j, true
	}
	return job{}, false
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
// again) — the fastpath-vs-interpreter aggregate-stats equality test
// relies on this.
func (p *Pool) runWorker(w *worker) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		j, ok := p.pickLocked(w)
		if ok {
			w.running = true
			p.signalSpaceLocked()
			p.mu.Unlock()
			err := p.execute(w, &j)
			p.mu.Lock()
			w.running = false
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
		if err = p.ensure(w, j.tn); err == nil {
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

// ensure makes the worker's device hold the tenant's program, paying a
// cold configure (first job on this worker) or a reconfiguration
// (program switch) as needed. Runs on the worker goroutine.
func (p *Pool) ensure(w *worker, tn *Farm) error {
	if w.dev != nil && w.loadedSet && w.loaded == tn.pk {
		p.met.affinity.Inc()
		return nil
	}
	if w.dev == nil {
		dev, err := core.Configure(tn.alg, tn.key, tn.wcfg)
		if err != nil {
			return err
		}
		w.dev = dev
		p.reg.Attach(dev.Obs(), obs.L("worker", strconv.Itoa(w.idx)))
	} else {
		p.met.reconfigs.Inc()
		if err := w.dev.Reconfigure(tn.alg, tn.key, tn.wcfg); err != nil {
			p.mu.Lock()
			w.loadedSet = false
			p.mu.Unlock()
			return err
		}
	}
	p.mu.Lock()
	w.loaded, w.loadedSet = tn.pk, true
	p.mu.Unlock()
	return nil
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
