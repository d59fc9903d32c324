package farm

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cobra/internal/cipher"
	"cobra/internal/core"
	"cobra/internal/program"
	"cobra/internal/sim"
)

var key = []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// refCTR is the host-reference counter-mode oracle.
func refCTR(t *testing.T, blk cipher.Block, iv, src []byte) []byte {
	t.Helper()
	dst := make([]byte, len(src))
	var c, ks [16]byte
	copy(c[:], iv)
	for off := 0; off < len(src); off += 16 {
		blk.Encrypt(ks[:], c[:])
		for i := 15; i >= 0; i-- {
			c[i]++
			if c[i] != 0 {
				break
			}
		}
		n := len(src) - off
		if n > 16 {
			n = 16
		}
		for j := 0; j < n; j++ {
			dst[off+j] = src[off+j] ^ ks[j]
		}
	}
	return dst
}

func reference(t *testing.T, alg core.Algorithm) cipher.Block {
	t.Helper()
	s, err := program.Lookup(string(alg))
	if err != nil {
		t.Fatal(err)
	}
	blk, err := s.Reference(key)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// openFarm opens a tenant for alg under key on a fresh pool of the given
// size; the pool closes at test cleanup.
func openFarm(t testing.TB, workers int, alg core.Algorithm, cfg core.Config) *Farm {
	t.Helper()
	p, err := NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	f, err := p.Open(alg, key, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func testMessage(n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i*31 + i>>8)
	}
	return msg
}

// TestFarmCTRMatchesSingleDevice pins the sharding: the farm's CTR output
// must be byte-identical to one device's, for messages that span several
// shards and end on a partial block.
func TestFarmCTRMatchesSingleDevice(t *testing.T) {
	for _, alg := range []core.Algorithm{core.RC6, core.Rijndael, core.Serpent} {
		f := openFarm(t, 4, alg, core.Config{})
		d, err := core.Configure(alg, key, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		iv := bytes.Repeat([]byte{0xf0}, 16)
		for _, n := range []int{16, 16 * 7, 16*20 + 5} {
			msg := testMessage(n)
			got, err := f.EncryptCTR(context.Background(), iv, msg)
			if err != nil {
				t.Fatalf("%s n=%d: %v", alg, n, err)
			}
			want, err := d.EncryptCTR(context.Background(), iv, msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s n=%d: farm CTR differs from single device", alg, n)
			}
			if ref := refCTR(t, reference(t, alg), iv, msg); !bytes.Equal(got, ref) {
				t.Errorf("%s n=%d: farm CTR differs from host reference", alg, n)
			}
		}
		f.pool.Close()
	}
}

// TestFarmCTRCrossesShardBoundaryCounters uses an iv close to a byte
// carry so shard-start counters derived via AddCounter exercise the carry
// chain.
func TestFarmCTRCrossesShardBoundaryCounters(t *testing.T) {
	f := openFarm(t, 3, core.Rijndael, core.Config{})
	iv := bytes.Repeat([]byte{0xff}, 16) // wraps to zero after one block
	msg := testMessage(16 * 12)
	got, err := f.EncryptCTR(context.Background(), iv, msg)
	if err != nil {
		t.Fatal(err)
	}
	if want := refCTR(t, reference(t, core.Rijndael), iv, msg); !bytes.Equal(got, want) {
		t.Error("farm CTR differs from host reference across counter wraparound")
	}
	back, err := f.DecryptCTR(context.Background(), iv, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, msg) {
		t.Error("DecryptCTR(EncryptCTR(x)) != x")
	}
}

func TestFarmECBMatchesSingleDevice(t *testing.T) {
	f := openFarm(t, 4, core.Rijndael, core.Config{Unroll: 2})
	d, err := core.Configure(core.Rijndael, key, core.Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	msg := testMessage(16 * 13)
	got, err := f.EncryptECB(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.EncryptECB(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("farm ECB differs from single device")
	}
	if _, err := f.EncryptECB(context.Background(), msg[:17]); err == nil {
		t.Error("ragged ECB input accepted")
	}
}

func TestFarmValidation(t *testing.T) {
	if _, err := NewPool(-1); err == nil {
		t.Error("negative workers accepted")
	}
	f := openFarm(t, 1, core.Rijndael, core.Config{Unroll: 1})
	if _, err := f.pool.Open(core.Rijndael, key[:3], core.Config{}); err == nil {
		t.Error("bad key accepted")
	}
	if _, err := f.EncryptCTR(context.Background(), []byte{1}, make([]byte, 16)); err == nil {
		t.Error("short iv accepted")
	}
	if out, err := f.EncryptCTR(context.Background(), make([]byte, 16), nil); err != nil || len(out) != 0 {
		t.Errorf("empty src: out=%v err=%v", out, err)
	}
}

func TestFarmContextCancellation(t *testing.T) {
	f := openFarm(t, 2, core.Rijndael, core.Config{Unroll: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.EncryptCTR(ctx, make([]byte, 16), testMessage(16*64)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context: err = %v, want context.Canceled", err)
	}
	// An expired deadline behaves the same way.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	<-dctx.Done()
	if _, err := f.EncryptCTR(dctx, make([]byte, 16), testMessage(16*64)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	// The farm stays usable after cancellations.
	if _, err := f.EncryptCTR(context.Background(), make([]byte, 16), testMessage(32)); err != nil {
		t.Errorf("farm unusable after cancellation: %v", err)
	}
}

func TestFarmClose(t *testing.T) {
	f := openFarm(t, 2, core.Rijndael, core.Config{Unroll: 1})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal("Close is not idempotent:", err)
	}
	if _, err := f.EncryptCTR(context.Background(), make([]byte, 16), make([]byte, 16)); !errors.Is(err, ErrClosed) {
		t.Errorf("encrypt after close: err = %v, want ErrClosed", err)
	}
}

func TestFarmReportAggregation(t *testing.T) {
	const workers = 2
	f := openFarm(t, workers, core.Rijndael, core.Config{})
	const blocks = 64
	if _, err := f.EncryptCTR(context.Background(), make([]byte, 16), testMessage(16*blocks)); err != nil {
		t.Fatal(err)
	}
	r := f.Report()
	if r.Workers != workers || len(r.PerWorker) != workers {
		t.Fatalf("report covers %d/%d workers, want %d", r.Workers, len(r.PerWorker), workers)
	}
	if r.Stats.BlocksOut != blocks {
		t.Errorf("Total.BlocksOut = %d, want %d", r.Stats.BlocksOut, blocks)
	}
	jobs := 0
	for _, w := range r.PerWorker {
		jobs += w.Jobs
		if w.Stats.Cycles > r.WallCycles {
			t.Errorf("WallCycles %d below worker cycles %d", r.WallCycles, w.Stats.Cycles)
		}
	}
	if jobs != workers { // 64 blocks over 2 workers -> 2 shards
		t.Errorf("total jobs = %d, want %d", jobs, workers)
	}
	if r.DatapathMHz <= 0 || r.ThroughputMbps <= 0 || r.CyclesPerBlock <= 0 {
		t.Errorf("degenerate report: %+v", r)
	}
	f.ResetStats()
	r = f.Report()
	if r.Stats != (Report{}.Stats) || r.WallCycles != 0 {
		t.Errorf("ResetStats left counters: %+v", r.Stats)
	}
}

// TestFarmZeroLengthMessage pins the zero-block edge: an empty message is
// a no-op that dispatches no jobs, and the report's derived rates stay
// zero instead of dividing by zero.
func TestFarmZeroLengthMessage(t *testing.T) {
	f := openFarm(t, 2, core.Rijndael, core.Config{})
	out, err := f.EncryptCTR(context.Background(), make([]byte, 16), nil)
	if err != nil {
		t.Fatalf("empty message: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("empty message produced %d bytes", len(out))
	}
	r := f.Report()
	if r.Stats != (Report{}.Stats) || r.WallCycles != 0 {
		t.Errorf("zero-block job moved counters: %+v", r.Stats)
	}
	if r.CyclesPerBlock != 0 || r.ThroughputMbps != 0 {
		t.Errorf("zero-block rates not zero: cpb=%v mbps=%v", r.CyclesPerBlock, r.ThroughputMbps)
	}
	for _, w := range r.PerWorker {
		if w.Jobs != 0 {
			t.Errorf("zero-length message dispatched a job: %+v", r.PerWorker)
		}
	}
}

// TestFarmPartialFinalBlockReport pins the partial-block edge: a message
// ending mid-block still counts the final keystream block, the ciphertext
// matches the host oracle, and the per-worker counters sum to the total.
func TestFarmPartialFinalBlockReport(t *testing.T) {
	f := openFarm(t, 2, core.Rijndael, core.Config{})
	iv := make([]byte, 16)
	msg := testMessage(16*2 + 8) // two full blocks and half a final one
	out, err := f.EncryptCTR(context.Background(), iv, msg)
	if err != nil {
		t.Fatal(err)
	}
	if want := refCTR(t, reference(t, core.Rijndael), iv, msg); !bytes.Equal(out, want) {
		t.Fatal("partial-final-block ciphertext mismatch")
	}
	r := f.Report()
	if r.Stats.BlocksOut != 3 {
		t.Errorf("Total.BlocksOut = %d, want 3 (partial block costs a full keystream block)", r.Stats.BlocksOut)
	}
	var sum sim.Stats
	for _, w := range r.PerWorker {
		sum.Add(w.Stats)
	}
	if sum != r.Stats {
		t.Errorf("per-worker sum %+v != total %+v", sum, r.Stats)
	}
	if r.CyclesPerBlock <= 0 || r.ThroughputMbps <= 0 {
		t.Errorf("degenerate rates: %+v", r)
	}
}

// TestFarmScalingMonotonic checks the acceptance criterion directly: the
// simulated aggregate throughput must rise monotonically from 1 to 4
// workers (sharding shrinks the busiest worker's cycle count).
func TestFarmScalingMonotonic(t *testing.T) {
	msg := testMessage(16 * 256)
	iv := make([]byte, 16)
	prev := 0.0
	for _, workers := range []int{1, 2, 4} {
		f := openFarm(t, workers, core.Rijndael, core.Config{})
		if _, err := f.EncryptCTR(context.Background(), iv, msg); err != nil {
			t.Fatal(err)
		}
		mbps := f.Report().ThroughputMbps
		f.pool.Close()
		if mbps <= prev {
			t.Errorf("workers=%d: ThroughputMbps %.1f did not improve on %.1f", workers, mbps, prev)
		}
		prev = mbps
	}
}

func TestFarmQueueSignals(t *testing.T) {
	const workers = 3
	f := openFarm(t, workers, core.Rijndael, core.Config{Unroll: 1})
	if got, want := f.QueueCapacity(), workers*WorkerQueueDepth; got != want {
		t.Fatalf("QueueCapacity = %d, want %d", got, want)
	}
	if d := f.QueueDepth(); d != 0 {
		t.Fatalf("idle QueueDepth = %d, want 0", d)
	}
	// Stall every worker in a fault hook, then dispatch enough shards
	// (more than workers*(1+queue depth)) that some must sit in queues.
	release := make(chan struct{})
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	defer unstall()
	for _, w := range f.pool.workers {
		w.fault = func(j *job) error { <-release; return nil }
	}
	done := make(chan error, 1)
	go func() {
		const shards = workers*(WorkerQueueDepth+1) + 2
		_, err := f.EncryptCTR(context.Background(), make([]byte, 16),
			testMessage(16*shards*ShardBlocks))
		done <- err
	}()
	deadline := time.After(10 * time.Second)
	for f.QueueDepth() == 0 {
		select {
		case <-deadline:
			t.Fatal("QueueDepth never rose while workers were stalled")
		case <-time.After(time.Millisecond):
		}
	}
	unstall()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d := f.QueueDepth(); d != 0 {
		t.Fatalf("drained QueueDepth = %d, want 0", d)
	}
}
