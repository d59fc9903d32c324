package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"cobra/internal/core"
	"cobra/internal/obs"
)

// backendKey identifies one configured backend: the (program, key)
// pair a tenant session pins. Two tenants with the same algorithm, key
// and unroll share a backend — and therefore its compiled image
// (microcode and fastpath traces) — which is the whole point of the
// LRU: building it (microcode compile, trace recording and self-check)
// is the expensive operation, so the server pays it once per distinct
// configuration, not once per connection. A farm backend's workers then
// load that image on every switch to the tenant, counting the
// configuration phase the paper's algorithm-agility story amortizes
// (recorded once in the image), but no compile.
type backendKey struct {
	alg    core.Algorithm
	unroll int
	key    string // raw key bytes (map key); never exported or logged
}

// fingerprint is the key's log/metrics-safe identity: an FNV-64 of the
// raw key, truncated — enough to tell configurations apart in /metrics
// without disclosing key material.
func (k backendKey) fingerprint() string {
	h := fnv.New64a()
	h.Write([]byte(k.key))
	return fmt.Sprintf("%s-u%d-%08x", k.alg, k.unroll, h.Sum64()&0xffffffff)
}

// errCacheBusy is returned when every cached backend is pinned by a live
// session and the LRU has no slot to evict — an admission-control
// condition reported to clients as CodeBusy, like a full queue.
var errCacheBusy = fmt.Errorf("backend cache full: all configured backends are in use")

// backend is one configured core.Cipher plus the bookkeeping the server
// needs around it: an admission gate, a refcount of sessions pinning it,
// and its position in the LRU order.
type backend struct {
	key backendKey
	// ready is closed once configuration finished (cfg or cfgErr set);
	// concurrent sessions configuring the same key wait on it instead of
	// paying a second reconfiguration.
	ready  chan struct{}
	cipher core.Cipher
	cfgErr error
	// closer shuts the backend down at eviction (farm.Close); nil for a
	// single device.
	closer func() error
	// queueDepth/queueCap expose the farm's backpressure signal (nil for
	// a device): admission sheds BUSY when depth >= cap.
	queueDepth func() int
	queueCap   int
	// reg is the backend's obs registry, attached to the server registry
	// under a config label while the backend is cached.
	reg *obs.Registry
	// shape for CONFIGURE acks.
	workers int
	rows    int
	unroll  int

	// gate bounds concurrent requests: sem holds the executing requests
	// (capacity 1 for a device, which is single-goroutine by contract),
	// waiters bounds the queued ones; beyond that, BUSY.
	sem        chan struct{}
	waiters    atomic.Int64
	maxWaiters int64

	// refs counts sessions pinning this backend; lastUse orders eviction.
	// Both are guarded by the owning cache's mu.
	refs    int
	lastUse uint64
}

// acquireSlot admits one request: immediately if an execution slot is
// free, by bounded waiting otherwise. Returns errCacheBusy-compatible
// admission failure (errBusySlot) when the wait queue is full, or the
// context error if the caller disconnects while queued.
func (b *backend) acquireSlot(ctx context.Context) error {
	select {
	case b.sem <- struct{}{}:
		return nil
	default:
	}
	if b.waiters.Add(1) > b.maxWaiters {
		b.waiters.Add(-1)
		return errBusySlot
	}
	defer b.waiters.Add(-1)
	select {
	case b.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// releaseSlot returns an execution slot.
func (b *backend) releaseSlot() { <-b.sem }

// errBusySlot reports a full per-backend admission queue.
var errBusySlot = fmt.Errorf("backend saturated: execution slots and wait queue are full")

// cache is the capacity-bounded LRU of configured backends. Sessions
// acquire a backend at CONFIGURE (pinning it against eviction) and
// release it at disconnect; eviction closes the least-recently-used
// unpinned backend to make room.
type cache struct {
	mu      sync.Mutex
	max     int
	seq     uint64
	entries map[backendKey]*backend

	// build configures a new backend for a key (slow: builds its image,
	// compiling microcode and the fastpath trace), filling e's cipher and shape
	// fields in place — every waiter already holds the placeholder
	// pointer. Called WITHOUT mu held, before e.ready is closed.
	build func(k backendKey, e *backend) error

	// attach/detach wire a backend's registry into the served tree.
	attach func(b *backend)
	detach func(b *backend)

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	size      *obs.Gauge
}

func newCache(max int, build func(backendKey, *backend) error) *cache {
	return &cache{
		max:     max,
		entries: make(map[backendKey]*backend),
		build:   build,
		attach:  func(*backend) {},
		detach:  func(*backend) {},
	}
}

// acquire returns the configured backend for k, building it on a miss.
// The returned backend is pinned (refs+1) until release. hit reports
// whether an already-configured backend was reused. When the cache is
// full of pinned backends, acquire fails with errCacheBusy.
func (c *cache) acquire(ctx context.Context, k backendKey) (b *backend, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		e.refs++
		c.seq++
		e.lastUse = c.seq
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			c.release(e)
			return nil, false, ctx.Err()
		}
		if e.cfgErr != nil {
			// Creation failed after we queued on it; the creator already
			// removed the entry from the map.
			c.release(e)
			return nil, false, e.cfgErr
		}
		if c.hits != nil {
			c.hits.Inc()
		}
		return e, true, nil
	}
	// Miss: make room, insert a placeholder, configure outside the lock.
	var evicted *backend
	if len(c.entries) >= c.max {
		evicted = c.evictLocked()
		if evicted == nil {
			c.mu.Unlock()
			return nil, false, errCacheBusy
		}
	}
	e := &backend{key: k, ready: make(chan struct{}), refs: 1}
	c.seq++
	e.lastUse = c.seq
	c.entries[k] = e
	if c.size != nil {
		c.size.Set(int64(len(c.entries)))
	}
	c.mu.Unlock()

	if evicted != nil {
		c.closeBackend(evicted)
	}
	if c.misses != nil {
		c.misses.Inc()
	}

	err = c.build(k, e)
	c.mu.Lock()
	if err != nil {
		e.cfgErr = err
		delete(c.entries, k)
		if c.size != nil {
			c.size.Set(int64(len(c.entries)))
		}
		close(e.ready)
		c.mu.Unlock()
		return nil, false, err
	}
	c.attach(e)
	close(e.ready)
	c.mu.Unlock()
	return e, false, nil
}

// release unpins a backend; at refs 0 it stays cached (warm for the
// next session) until evicted.
func (c *cache) release(b *backend) {
	if b == nil {
		return
	}
	c.mu.Lock()
	b.refs--
	c.mu.Unlock()
}

// evictLocked removes and returns the least-recently-used backend with
// no live sessions, or nil if every entry is pinned. Caller holds mu
// and must closeBackend the result after unlocking.
func (c *cache) evictLocked() *backend {
	var victim *backend
	for _, e := range c.entries {
		if e.refs > 0 {
			continue
		}
		select {
		case <-e.ready:
		default:
			continue // still configuring (shouldn't happen with refs 0)
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim = e
		}
	}
	if victim == nil {
		return nil
	}
	delete(c.entries, victim.key)
	if c.size != nil {
		c.size.Set(int64(len(c.entries)))
	}
	if c.evictions != nil {
		c.evictions.Inc()
	}
	return victim
}

// closeBackend detaches and closes an evicted backend. refs==0 means no
// session (and therefore no request) is using it, so Close cannot strand
// in-flight work.
func (c *cache) closeBackend(b *backend) {
	c.detach(b)
	if b.closer != nil {
		_ = b.closer()
	}
}

// closeAll evicts everything — the server's shutdown path, called after
// every session has exited.
func (c *cache) closeAll() {
	c.mu.Lock()
	all := make([]*backend, 0, len(c.entries))
	for _, e := range c.entries {
		all = append(all, e)
	}
	c.entries = make(map[backendKey]*backend)
	if c.size != nil {
		c.size.Set(0)
	}
	c.mu.Unlock()
	for _, e := range all {
		c.closeBackend(e)
	}
}

// len returns the number of cached backends.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
