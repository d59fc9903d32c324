package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
)

// TestFarmSweepDeterministic: the scheduler study is a simulation, so
// its archive is a function of its inputs — the same bytes on every run
// and at any GOMAXPROCS (CI diffs BENCH_farm.json exactly).
func TestFarmSweepDeterministic(t *testing.T) {
	sweep := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rep, err := FarmSweep(make([]byte, 16), []int{1, 2, 4, 8, 16})
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := sweep(1)
	for _, procs := range []int{1, 4} {
		if !bytes.Equal(sweep(procs), first) {
			t.Errorf("FarmSweep JSON at GOMAXPROCS=%d differs from the first run at GOMAXPROCS=1", procs)
		}
	}
}

// TestSimulateConfiguresInParallel: a configuration occupies the worker
// that performs it, so two workers reconfiguring at the same instant
// lengthen the makespan by one configuration, not two. Round-robin over
// two workers, 2-shard calls: after warmup both workers hold the second
// tenant's program, so the first tenant's two measured shards start
// together, each behind a reconfiguration.
func TestSimulateConfiguresInParallel(t *testing.T) {
	const configPs = 300
	point := func(cfg int64) FarmPoint {
		ts := []simTenant{
			{shardPs: map[int]int64{1: 1000}, configPs: cfg},
			{shardPs: map[int]int64{1: 1}},
		}
		return simulate(ts, 2, []int{1, 1}, 1, 1, "roundrobin")
	}
	with, without := point(configPs), point(0)
	if with.Reconfigures != 4 {
		t.Fatalf("measured phase paid %d reconfigurations, want 4", with.Reconfigures)
	}
	if d := with.MakespanPs - without.MakespanPs; d != configPs {
		t.Errorf("two simultaneous reconfigurations lengthened the makespan by %d ps, want %d", d, configPs)
	}
}

// TestFarmSweepOneWorkerArmsAgree: with one worker both arms are FIFO
// with queue depth 2 — there is no sibling to steal from and no other
// worker to place on — so they read the same measured phase, and with
// three tenants each job finds the previous tenant's program loaded.
func TestFarmSweepOneWorkerArmsAgree(t *testing.T) {
	rep, err := FarmSweep(make([]byte, 16), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("%d points, want 2", len(rep.Points))
	}
	aff, rr := rep.Points[0], rep.Points[1]
	rr.Policy = aff.Policy
	if !reflect.DeepEqual(aff, rr) {
		t.Errorf("one worker: affinity %+v, round-robin %+v", aff, rr)
	}
	if want := int64(len(rep.Tenants) * rep.MeasureRounds); aff.Reconfigures != want {
		t.Errorf("one worker paid %d reconfigurations, want %d", aff.Reconfigures, want)
	}
}
