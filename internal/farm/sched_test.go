package farm

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"cobra/internal/core"
)

// TestNewPoolWorkers pins the pool's one setting: a worker count is
// used as given, and a count below 1 is refused.
func TestNewPoolWorkers(t *testing.T) {
	for _, n := range []int{0, -1} {
		if p, err := NewPool(n); err == nil {
			p.Close()
			t.Errorf("NewPool(%d) accepted", n)
		}
	}
	p, err := NewPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Workers() != 3 || p.QueueCapacity() != 3*WorkerQueueDepth {
		t.Errorf("NewPool(3): %d workers, queue capacity %d", p.Workers(), p.QueueCapacity())
	}
}

// TestFarmDecryptECBMatchesDevice round-trips the sharded ECB decrypt
// path against a single device and checks its validation.
func TestFarmDecryptECBMatchesDevice(t *testing.T) {
	msg := testMessage(16 * 53)
	f := openFarm(t, 4, core.Rijndael, core.Config{})
	ct, err := f.EncryptECB(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Configure(core.Rijndael, key, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.DecryptECB(context.Background(), ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.DecryptECB(context.Background(), ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || !bytes.Equal(got, msg) {
		t.Fatal("farm ECB decrypt diverges from single-device decrypt")
	}
	if _, err := f.DecryptECB(context.Background(), ct[:17]); err == nil {
		t.Error("partial block accepted")
	}
}

// TestFarmDecryptCBCShardBoundaries is the off-by-one regression test
// for sharded CBC decryption: every shard after the first must take its
// chaining IV from the ciphertext block immediately before its boundary.
// A tiny shardBlocks forces many boundaries, and odd message sizes place
// them away from powers of two; any boundary using the wrong block (or
// the call IV) corrupts the first plaintext block of that shard.
func TestFarmDecryptCBCShardBoundaries(t *testing.T) {
	iv := bytes.Repeat([]byte{0xA5}, 16)
	d, err := core.Configure(core.Rijndael, key, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, blocks := range []int{1, 2, 3, 7, 16, 37} {
		msg := testMessage(16 * blocks)
		ct, err := d.EncryptCBC(context.Background(), iv, msg)
		if err != nil {
			t.Fatal(err)
		}
		for _, shardBlocks := range []int{1, 2, 5} {
			f := openFarm(t, 3, core.Rijndael, core.Config{})
			f.pool.shardBlocks = shardBlocks
			got, err := f.DecryptCBC(context.Background(), iv, ct)
			f.pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("blocks=%d shardBlocks=%d: sharded CBC decrypt corrupted the plaintext", blocks, shardBlocks)
			}
		}
	}
	f := openFarm(t, 2, core.Rijndael, core.Config{})
	if _, err := f.DecryptCBC(context.Background(), iv[:3], testMessage(32)); err == nil {
		t.Error("short IV accepted")
	}
	if _, err := f.DecryptCBC(context.Background(), iv, testMessage(33)); err == nil {
		t.Error("partial block accepted")
	}
}

// TestFarmSameProgramSteal pins the work-stealing path: with one worker
// held mid-job by a gated fault, the shards queued behind it must be
// stolen and completed by its sibling — the dispatch cannot finish
// otherwise — and the steal is counted.
func TestFarmSameProgramSteal(t *testing.T) {
	f := openFarm(t, 2, core.Rijndael, core.Config{})
	f.pool.shardBlocks = 64
	// Hold the first job of each worker at a gate: the dispatcher fills
	// both queues behind the held jobs, then releasing only worker 0
	// leaves worker 1 running with a backlog — which worker 0, once its
	// own queue drains, must steal to let the call finish.
	gates := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var onces [2]sync.Once
	var releases [2]sync.Once
	release := func(i int) { releases[i].Do(func() { close(gates[i]) }) }
	defer release(0)
	defer release(1)
	for i := range gates {
		i := i
		f.pool.workers[i].fault = func(*job) error {
			onces[i].Do(func() { <-gates[i] })
			return nil
		}
	}
	done := make(chan error, 1)
	go func() {
		// 512 blocks at 64 per shard = 8 shards on 2 workers.
		_, err := f.EncryptCTR(context.Background(), make([]byte, 16), testMessage(16*512))
		done <- err
	}()
	deadline := time.After(10 * time.Second)
	for f.QueueDepth() < 2 {
		select {
		case <-deadline:
			t.Fatal("queues never filled behind the held workers")
		case <-time.After(time.Millisecond):
		}
	}
	release(0)
	for f.pool.met.stealsSame.Value() == 0 {
		select {
		case <-deadline:
			t.Fatal("no same-program steal while a worker was held with a backlog")
		case <-time.After(time.Millisecond):
		}
	}
	release(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := f.pool.met.reconfigs.Value(); n != 0 {
		t.Errorf("same-program steals paid %d reconfigurations, want 0", n)
	}
}

// TestPoolMultiTenantAffinity is the scheduler's reason to exist: two
// tenants with different keys sharing one pool must partition onto
// disjoint workers after warmup, so steady-state traffic pays zero
// reconfigurations.
func TestPoolMultiTenantAffinity(t *testing.T) {
	p, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	key2 := bytes.Repeat([]byte{0x5A}, 16)
	a, err := p.Open(core.Rijndael, key, core.Config{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open(core.Rijndael, key2, core.Config{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	iv := make([]byte, 16)
	msg := testMessage(16 * 32)
	round := func() {
		t.Helper()
		if _, err := a.EncryptCTR(context.Background(), iv, msg); err != nil {
			t.Fatal(err)
		}
		if _, err := b.EncryptCTR(context.Background(), iv, msg); err != nil {
			t.Fatal(err)
		}
	}
	// Warmup: the tenants claim workers (cold configures, plus at most a
	// couple of cross-steal reconfigurations while the partition forms).
	for i := 0; i < 2; i++ {
		round()
	}
	warmReconfigs, warmHits := p.met.reconfigs.Value(), p.met.affinity.Value()
	if warmReconfigs > 4 {
		t.Errorf("warmup paid %d reconfigurations, want <= 4", warmReconfigs)
	}
	for i := 0; i < 8; i++ {
		round()
	}
	if d := p.met.reconfigs.Value() - warmReconfigs; d != 0 {
		t.Errorf("steady state paid %d reconfigurations, want 0", d)
	}
	if p.met.affinity.Value() <= warmHits {
		t.Error("no affinity hits recorded in steady state")
	}
	// Tenant reports are independent: both saw traffic, and closing one
	// tenant leaves the other (and the pool) serving.
	if a.Report().Stats.BlocksOut == 0 || b.Report().Stats.BlocksOut == 0 {
		t.Error("tenant reports missing traffic")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.EncryptCTR(context.Background(), iv, msg); err != ErrClosed {
		t.Errorf("closed tenant err = %v, want ErrClosed", err)
	}
	if _, err := b.EncryptCTR(context.Background(), iv, msg); err != nil {
		t.Errorf("sibling tenant broken by Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EncryptCTR(context.Background(), iv, msg); err != ErrClosed {
		t.Errorf("tenant on closed pool err = %v, want ErrClosed", err)
	}
}

// TestPoolWorkStealingSoak is the -race soak for the scheduler: several
// tenants hammer a small shared pool concurrently in every sharded mode,
// every result verified, so placement, stealing, rebinding and tenant
// accounting all interleave under the race detector.
func TestPoolWorkStealingSoak(t *testing.T) {
	p, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	calls := 12
	if testing.Short() {
		calls = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for tn := 0; tn < 3; tn++ {
		tkey := bytes.Repeat([]byte{byte(0x11 * (tn + 1))}, 16)
		f, err := p.Open(core.Rijndael, tkey, core.Config{Unroll: 1})
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(f *Farm, seed int) {
				defer wg.Done()
				ctx := context.Background()
				iv := bytes.Repeat([]byte{byte(seed)}, 16)
				for i := 0; i < calls; i++ {
					msg := testMessage(16 * (64 + 16*seed + i))
					ct, err := f.EncryptCBC(ctx, iv, msg)
					if err != nil {
						errs <- err
						return
					}
					pt, err := f.DecryptCBC(ctx, iv, ct)
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(pt, msg) {
						errs <- fmt.Errorf("seed %d call %d: CBC round trip corrupted", seed, i)
						return
					}
					ecb, err := f.EncryptECB(ctx, msg)
					if err != nil {
						errs <- err
						return
					}
					pt, err = f.DecryptECB(ctx, ecb)
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(pt, msg) {
						errs <- fmt.Errorf("seed %d call %d: ECB round trip corrupted", seed, i)
						return
					}
				}
			}(f, tn*2+g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if p.met.affinity.Value() == 0 {
		t.Error("soak recorded no affinity hits")
	}
}
