package farm

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"cobra/internal/core"
	"cobra/internal/obs"
)

// findSample returns the first gathered sample matching name and every
// given label (extra labels on the sample are allowed).
func findSample(r *obs.Registry, name string, labels ...obs.Label) (obs.Sample, bool) {
	for _, s := range r.Gather() {
		if s.Name != name {
			continue
		}
		ok := true
		for _, want := range labels {
			found := false
			for _, have := range s.Labels {
				if have == want {
					found = true
				}
			}
			if !found {
				ok = false
			}
		}
		if ok {
			return s, true
		}
	}
	return obs.Sample{}, false
}

// TestFarmWorkerErrorPropagation injects a fault into one worker and
// checks the error surfaces to the caller, the counters record it
// consistently at both levels, and the farm keeps serving afterwards.
func TestFarmWorkerErrorPropagation(t *testing.T) {
	f := openFarm(t, 2, core.Rijndael, core.Config{Unroll: 1})
	boom := errors.New("injected device fault")
	f.pool.workers[0].fault = func(*job) error { return boom }
	f.pool.workers[1].fault = func(*job) error { return boom }

	msg := testMessage(16 * 8)
	iv := make([]byte, 16)
	if _, err := f.EncryptCTR(context.Background(), iv, msg); !errors.Is(err, boom) {
		t.Fatalf("EncryptCTR err = %v, want the injected fault", err)
	}

	werrs, ok := findSample(f.pool.Obs(), "cobra_farm_worker_errors_total")
	if !ok {
		t.Fatal("no worker error series")
	}
	if werrs.Value == 0 {
		t.Error("worker error counter did not move")
	}
	ferrs, ok := findSample(f.Obs(), "cobra_farm_errors_total", obs.L("mode", "ctr"))
	if !ok || ferrs.Value != 1 {
		t.Errorf("farm ctr error counter = %+v, want 1", ferrs)
	}

	// Faults cleared: the pool recovers, and the output still matches a
	// clean device (the failed call must not have leaked partial state).
	f.pool.workers[0].fault, f.pool.workers[1].fault = nil, nil
	got, err := f.EncryptCTR(context.Background(), iv, msg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Configure(core.Rijndael, key, core.Config{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.EncryptCTR(context.Background(), iv, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("farm output diverges after recovering from a fault")
	}
}

// TestFarmCancellationCounters cancels a call mid-batch — the first
// shard is held at the worker by a gated fault hook while later shards
// queue behind it — and checks the cancellation reaches the caller and
// the skipped/failed shards are recorded as worker errors.
func TestFarmCancellationCounters(t *testing.T) {
	f := openFarm(t, 1, core.Rijndael, core.Config{Unroll: 1})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	f.pool.workers[0].fault = func(*job) error {
		once.Do(func() { close(started) })
		<-gate
		return nil
	}
	done := make(chan error, 1)
	go func() {
		// 4096 blocks = 4 shards on one worker: one in flight (held at
		// the gate), two queued, one still dispatching.
		_, err := f.EncryptCTR(ctx, make([]byte, 16), testMessage(16*4096))
		done <- err
	}()
	<-started
	cancel()
	close(gate)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	s, ok := findSample(f.pool.Obs(), "cobra_farm_worker_errors_total")
	if !ok {
		t.Fatal("no worker error series")
	}
	if s.Value == 0 {
		t.Error("cancelled shards were not counted as worker errors")
	}
}

// TestFarmMetricsExport checks the pool's registry tree end to end: the
// owner attaches Pool.Obs to its export parent, worker device registries
// appear underneath with worker labels, and the queue/shard series exist.
func TestFarmMetricsExport(t *testing.T) {
	parent := obs.NewRegistry()
	f := openFarm(t, 2, core.Rijndael, core.Config{Unroll: 1})
	parent.Attach(f.pool.Obs())
	if _, err := f.EncryptCTR(context.Background(), make([]byte, 16), testMessage(16*16)); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if err := parent.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`cobra_farm_workers{backend="farm"} 2`,
		`cobra_farm_worker_jobs_total{`,
		`worker="0"`,
		`worker="1"`,
		"cobra_farm_shards_total{",
		"cobra_farm_queue_depth{",
		"cobra_farm_shard_blocks_bucket{",
		"cobra_device_requests_total{",
		"cobra_sim_ticks_total{",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("farm exposition missing %q", want)
		}
	}
	if _, ok := findSample(parent, "cobra_device_blocks_out_total",
		obs.L("backend", "farm"), obs.L("worker", "1")); !ok {
		t.Error("worker 1's device registry not gathered through the parent")
	}
}
