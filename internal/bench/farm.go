package bench

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"text/tabwriter"

	"cobra/internal/core"
	"cobra/internal/farm"
	"cobra/internal/obs"
	"cobra/internal/program"
	"cobra/internal/sim"
)

// FarmTenant is one tenant of the mixed-tenant scheduler study — a
// distinct (program, key) pair sharing the pool with the others — and
// its cost model as archived. Two tenants share the Rijndael program
// with different keys: the case where only key-aware affinity (not just
// algorithm affinity) avoids the reconfiguration.
type FarmTenant struct {
	Name string `json:"name"`
	// PsPerCycle is the tenant program's clock period in whole
	// picoseconds (its core.Device's DatapathMHz, rounded).
	PsPerCycle int64 `json:"ps_per_cycle"`
	// ConfigCycles is the measured configuration cost: the simulated
	// cycles from iRAM load until the program idles at ready, which the
	// device simulator excludes from its call Stats.
	ConfigCycles int64 `json:"config_cycles"`

	cfg Config // the program; its Rounds is the unroll
	key []byte
}

func farmTenants(key []byte) []FarmTenant {
	xor := func(mask byte) []byte {
		k := make([]byte, len(key))
		for i := range key {
			k[i] = key[i] ^ mask
		}
		return k
	}
	return []FarmTenant{
		{Name: "rijndael-a", cfg: Config{"rijndael", 1}, key: key},
		{Name: "rijndael-b", cfg: Config{"rijndael", 1}, key: xor(0x5A)},
		{Name: "rc6", cfg: Config{"rc6", 1}, key: xor(0xA5)},
	}
}

// FarmPoint is one simulated point of the scheduler study: one placement
// policy at one pool width, driven by the mixed-tenant workload.
type FarmPoint struct {
	Policy  string `json:"policy"`
	Workers int    `json:"workers"`
	// Blocks is the total block count of the measured (post-warmup)
	// phase across all tenants.
	Blocks int64 `json:"blocks"`
	// MakespanPs is the measured phase's simulated length, from the
	// barrier after warmup until the last measured call finished.
	MakespanPs int64 `json:"makespan_ps"`
	// EffectiveMbps is Blocks·128 bits over MakespanPs.
	EffectiveMbps float64 `json:"effective_mbps"`
	// Scheduler counters, measured phase only.
	Reconfigures  int64 `json:"reconfigures"`
	AffinityHits  int64 `json:"affinity_hits"`
	ProgramSteals int64 `json:"program_steals"`
	CrossSteals   int64 `json:"cross_steals"`
	// Busy is each worker's busy fraction of MakespanPs: shards plus the
	// configurations it performed.
	Busy []float64 `json:"busy"`
}

// FarmReport is the archived output of the scheduler study —
// BENCH_farm.json at the repository root, regenerated by
// `cobra-bench -farm -json` (indented JSON) and diffed exactly in CI.
type FarmReport struct {
	Tenants []FarmTenant `json:"tenants"`
	// CallBlocks is the per-call message size in blocks; each call
	// shards evenly across the pool width.
	CallBlocks int `json:"call_blocks"`
	// WarmupRounds/MeasureRounds are the calls each tenant makes before
	// and inside the measured phase.
	WarmupRounds  int         `json:"warmup_rounds"`
	MeasureRounds int         `json:"measure_rounds"`
	Points        []FarmPoint `json:"points"`
}

// configCycles measures one tenant program's configuration cost on a
// scratch machine: the simulated cycles from iRAM load until the
// program idles at ready. program.Load spends exactly these cycles and
// then resets the counters, so the study re-measures them here.
func configCycles(c Config, key []byte) (int64, error) {
	p, err := Build(c, key)
	if err != nil {
		return 0, err
	}
	m, err := program.NewMachine(p)
	if err != nil {
		return 0, err
	}
	m.Go = false
	if err := m.LoadProgram(p.Words()); err != nil {
		return 0, err
	}
	if _, err := m.Run(sim.Limits{}); err != nil {
		return 0, err
	}
	return int64(m.Stats().Cycles), nil
}

// shard is one job of the simulated pool: a tenant's share of one call.
type shard struct{ tenant, blocks int }

// simTenant is a tenant as the event loop prices it, in picoseconds.
type simTenant struct {
	shardPs  map[int]int64 // by shard size in blocks
	configPs int64         // one configuration or reconfiguration
}

// FarmSweep runs the mixed-tenant scheduler study: for each pool width,
// the same three closed-loop tenants under the pool's placer
// (farm.Placer, the "affinity" arm) and under the control arm,
// round-robin placement (a cursor over the workers that waits while the
// next worker's queue is full) without stealing. Both run in an
// integer-time discrete-event simulation, so the output depends only on
// the inputs.
//
// Each tenant's core.Device prices its shards: a shard of b blocks
// occupies its worker for the cycles the device spends on a b-block CTR
// call, times the tenant program's own clock period in whole
// picoseconds. A worker whose device holds another program (or none)
// first spends the tenant's configuration cycles at the same clock, so
// every worker pays for its own configurations, in parallel with the
// others. Pool.Open's probe gift binds and loads one worker per tenant,
// in tenant order, before the first call.
//
// Each tenant issues WarmupRounds calls of CallBlocks blocks, each as
// soon as its previous call finished; once every tenant's last warmup
// call has finished (a barrier), the measured phase starts and each
// issues MeasureRounds more. At each instant the loop
//
//  1. finishes the jobs ending then, in worker order, and issues the
//     next call of each tenant whose call that completed;
//  2. lets each tenant in turn place its call's remaining shards until
//     the pool refuses one;
//  3. lets each worker not running a job, in order, pick one and start
//     it;
//  4. repeats 2 and 3 until nothing moves, then advances to the next
//     job end.
//
// A different order moves the numbers.
func FarmSweep(key []byte, workersList []int) (*FarmReport, error) {
	rep := &FarmReport{Tenants: farmTenants(key), CallBlocks: 128, WarmupRounds: 2, MeasureRounds: 6}
	var ts []simTenant
	for i := range rep.Tenants {
		tn := &rep.Tenants[i]
		cfg, err := configCycles(tn.cfg, tn.key)
		if err != nil {
			return nil, fmt.Errorf("config cost for %s: %w", tn.Name, err)
		}
		dev, err := core.Configure(core.Algorithm(tn.cfg.Alg), tn.key, core.Config{Unroll: tn.cfg.Rounds})
		if err != nil {
			return nil, fmt.Errorf("configure %s: %w", tn.Name, err)
		}
		ps := int64(math.Round(1e6 / dev.Summary().DatapathMHz))
		tn.PsPerCycle, tn.ConfigCycles = ps, cfg
		st := simTenant{shardPs: map[int]int64{}, configPs: cfg * ps}
		// A device's first call after Configure starts from the program
		// idling at ready and runs a few cycles short of later calls, so
		// a throwaway 1-block call goes first and every shard size is
		// priced as a later call, whatever the order of the widths.
		sizes := []int{1}
		for _, n := range workersList {
			sizes = append(sizes, farm.Split(rep.CallBlocks, n, farm.ShardBlocks)...)
		}
		for i, b := range sizes {
			buf := make([]byte, 16*b)
			s, err := dev.EncryptCTRInto(context.Background(), buf, make([]byte, 16), buf)
			if err != nil {
				return nil, fmt.Errorf("price %s: %w", tn.Name, err)
			}
			if i > 0 {
				st.shardPs[b] = int64(s.Cycles) * ps
			}
		}
		ts = append(ts, st)
	}
	for _, policy := range []string{"affinity", "roundrobin"} {
		for _, n := range workersList {
			rep.Points = append(rep.Points, simulate(ts, n, farm.Split(rep.CallBlocks, n, farm.ShardBlocks), rep.WarmupRounds, rep.MeasureRounds, policy))
		}
	}
	return rep, nil
}

// simulate runs one point of the study (see FarmSweep): calls of the
// given shard sizes, warmup then measure rounds per tenant, placed by
// policy "affinity" (the placer) or "roundrobin".
func simulate(ts []simTenant, workers int, sizes []int, warmup, measure int, policy string) FarmPoint {
	pl := farm.Placer[int, shard]{
		Workers:       make([]farm.Slot[int, shard], workers),
		Key:           func(s shard) int { return s.tenant },
		Rebinds:       new(obs.Counter),
		ProgramSteals: new(obs.Counter),
		CrossSteals:   new(obs.Counter),
	}
	// loaded maps a worker to the tenant whose program its device holds —
	// while it runs a job, that job's tenant.
	loaded := map[int]int{}
	for t := range ts {
		if w, ok := pl.Gift(t); ok {
			loaded[w] = t
		}
	}
	end := make([]int64, workers) // when the running job ends
	busy := make([]int64, workers)
	var now, blocks, hits, reconfigs int64
	rr := 0 // the round-robin cursor
	type call struct {
		left, out int // calls still to issue; shards placed, not finished
		todo      []shard
		used      []bool
	}
	calls := make([]call, len(ts))
	issue := func(t int) {
		if c := &calls[t]; c.left > 0 {
			c.left--
			c.used = make([]bool, workers)
			for _, b := range sizes {
				c.todo = append(c.todo, shard{t, b})
			}
		}
	}
	run := func(rounds int) {
		for t := range calls {
			calls[t].left = rounds
			issue(t)
		}
		for {
			for w := range pl.Workers {
				if pl.Workers[w].Running && end[w] == now {
					pl.Workers[w].Running = false
					c := &calls[loaded[w]]
					if c.out--; c.out == 0 && len(c.todo) == 0 {
						issue(loaded[w])
					}
				}
			}
			for moved := true; moved; {
				moved = false
				for t := range calls {
					c := &calls[t]
					for len(c.todo) > 0 {
						if policy == "roundrobin" {
							q := &pl.Workers[rr%workers].Queue
							if len(*q) >= farm.WorkerQueueDepth {
								break
							}
							rr++
							*q = append(*q, c.todo[0])
						} else if _, ok := pl.Place(c.todo[0], c.used); !ok {
							break
						}
						c.todo, c.out, moved = c.todo[1:], c.out+1, true
					}
				}
				for w := range pl.Workers {
					s, ok := shard{}, false
					switch q := pl.Workers[w].Queue; {
					case pl.Workers[w].Running:
					case policy != "roundrobin":
						s, ok = pl.Pick(w)
					case len(q) > 0: // round-robin never steals
						s, ok = q[0], true
						pl.Workers[w].Queue = q[1:]
					}
					if !ok {
						continue
					}
					d := ts[s.tenant].shardPs[s.blocks]
					if t, ok := loaded[w]; ok && t == s.tenant {
						hits++
					} else {
						d += ts[s.tenant].configPs // a cold configure or, with ok, a reconfiguration
						if ok {
							reconfigs++
						}
					}
					loaded[w], end[w] = s.tenant, now+d
					busy[w] += d
					blocks += int64(s.blocks)
					pl.Workers[w].Running, moved = true, true
				}
			}
			next := int64(-1)
			for w := range pl.Workers {
				if pl.Workers[w].Running && (next < 0 || end[w] < next) {
					next = end[w]
				}
			}
			if next < 0 {
				return
			}
			now = next
		}
	}

	run(warmup)
	t0 := now
	blocks, hits, reconfigs = 0, 0, 0
	pl.ProgramSteals, pl.CrossSteals = new(obs.Counter), new(obs.Counter)
	clear(busy)
	run(measure)
	pt := FarmPoint{
		Policy:        policy,
		Workers:       workers,
		Blocks:        blocks,
		MakespanPs:    now - t0,
		EffectiveMbps: float64(blocks*128) * 1e6 / float64(now-t0),
		Reconfigures:  reconfigs,
		AffinityHits:  hits,
		ProgramSteals: pl.ProgramSteals.Value(),
		CrossSteals:   pl.CrossSteals.Value(),
	}
	for _, b := range busy {
		pt.Busy = append(pt.Busy, float64(b)/float64(pt.MakespanPs))
	}
	return pt
}

// FarmSweepText renders the study as the round-robin vs program-aware
// comparison table (the EXPERIMENTS.md artifact).
func FarmSweepText(rep *FarmReport) string {
	var b bytes.Buffer
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(&b, "Mixed-tenant scheduler study (discrete-event simulation), %d-block calls, %d measured rounds\n",
		rep.CallBlocks, rep.MeasureRounds)
	for _, t := range rep.Tenants {
		fmt.Fprintf(&b, "  %s: %d ps/cycle, configuration %d cycles\n", t.Name, t.PsPerCycle, t.ConfigCycles)
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(w, "workers\trr Mbps\trr recfg\taff Mbps\taff recfg\taff hits\tsteals\tspeedup")
	// FarmSweep lists the affinity points, then round-robin's at the
	// same widths.
	n := len(rep.Points) / 2
	for i, af := range rep.Points[:n] {
		rr := rep.Points[n+i]
		fmt.Fprintf(w, "%d\t%.1f\t%d\t%.1f\t%d\t%d\t%d\t%.2fx\n",
			af.Workers, rr.EffectiveMbps, rr.Reconfigures,
			af.EffectiveMbps, af.Reconfigures,
			af.AffinityHits, af.ProgramSteals+af.CrossSteals, af.EffectiveMbps/rr.EffectiveMbps)
	}
	w.Flush()
	return b.String()
}
