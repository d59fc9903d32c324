package farm

import "cobra/internal/obs"

// Placer is the pool's placement policy over explicit per-worker state:
// which program each worker is bound to, which jobs are queued on it,
// and whether it is running one. Its methods neither block nor run
// jobs; the caller serializes them and executes what Pick hands out —
// the Pool under its mutex with one goroutine per worker, and the
// scheduler study in internal/bench from a discrete-event simulation.
// K identifies a program, the unit of affinity: two jobs with equal
// keys run back-to-back on one device without a reconfiguration. J is
// the job type.
type Placer[K comparable, J any] struct {
	Workers []Slot[K, J]
	// Key returns the program a job belongs to.
	Key func(J) K
	// Rebinds counts workers re-routed from one program to another;
	// ProgramSteals and CrossSteals count jobs an idle worker took from
	// a sibling's queue, of its own program and of another. All three
	// must be set.
	Rebinds, ProgramSteals, CrossSteals *obs.Counter
}

// Slot is one worker's scheduler state.
type Slot[K comparable, J any] struct {
	// Queue holds the jobs placed on the worker and not yet picked, at
	// most WorkerQueueDepth, head first.
	Queue []J
	// Bound is the program placement routes to the worker, once
	// BoundSet. A binding moves between programs but is never cleared.
	Bound    K
	BoundSet bool
	// Running is set by the caller while the worker executes a job.
	Running bool
}

func (s *Slot[K, J]) idle() bool { return !s.Running && len(s.Queue) == 0 }

// load counts the worker's queued jobs plus the one it is running.
func (s *Slot[K, J]) load() int {
	if s.Running {
		return len(s.Queue) + 1
	}
	return len(s.Queue)
}

// Place queues j on a worker chosen by the preference order below and
// returns its index, or false when every worker j's program may use is
// full and the caller must wait for one to free. used is the set of
// workers earlier jobs of the same call were placed on; the chosen
// worker joins it.
//
// Placement runs in two passes. The first excludes the used workers:
// one call's shards are the unit of Table 1 parallelism, and without
// the exclusion a hot worker that finishes shard k before shard k+1 is
// placed would attract the whole message and serialize the simulated
// wall-clock (program affinity is a cross-call economy, not an
// intra-call one). The second pass drops the exclusion so a call with
// more shards than workers still queues everywhere.
//
// The preference order encodes the cost model — a reconfiguration
// (a microcode reload and its configuration phase; the trace was
// compiled once, when the tenant opened) is worth avoiding above all
// else:
//
//  1. an idle worker bound to the program (free: the device is hot)
//  2. an idle worker never bound (pays one cold configure, never a
//     reconfigure)
//  3. queue behind the least-loaded worker bound to the program with
//     space
//
// Load counts a running job as well as the queue. A worker handed a
// shard that it has not yet picked up is then no cheaper than one
// already running a shard, so a call's shards do not pile a backlog of
// stealBacklog behind a running worker while its sibling waits to be
// scheduled — the backlog an idle worker of another program
// cross-steals, paying a reconfiguration there and another when the
// next call claims the worker back.
//
// The remaining rules run only in the second pass AND when the program
// has no bound worker with room — rebinding another program's worker is
// never worth it just to spread one call wider. Even then a rebind must
// be earned by fairness: a program may claim a worker only from a
// program holding at least two more workers than it does (the claim
// still leaves the victim no worse off, so every claim strictly narrows
// the imbalance — the partition converges to fair shares and then stays
// put, instead of tenants ping-ponging workers and paying a
// reconfiguration per swing). A program with no worker at all (more
// tenants than workers) may claim from anyone rather than starve. Among
// claimable workers:
//
//  4. rebind an idle claimable worker
//  5. queue behind the least-loaded claimable worker with space
func (p *Placer[K, J]) Place(j J, used []bool) (int, bool) {
	k := p.Key(j)
	w := p.choose(k, used)
	if w < 0 {
		w = p.choose(k, nil)
	}
	if w < 0 {
		return 0, false
	}
	used[w] = true
	p.Workers[w].Queue = append(p.Workers[w].Queue, j)
	return w, true
}

// choose applies the preference order of Place over the workers not
// excluded by avoid (nil excludes none), returning -1 when none fits.
func (p *Placer[K, J]) choose(k K, avoid []bool) int {
	ws := p.Workers
	// find returns the first idle worker satisfying ok or, when idle is
	// false, the least-loaded one with space; -1 if there is none.
	find := func(idle bool, ok func(s *Slot[K, J]) bool) int {
		best := -1
		for i := range ws {
			s := &ws[i]
			switch {
			case avoid != nil && avoid[i] || !ok(s):
			case idle && s.idle():
				return i
			case !idle && len(s.Queue) < WorkerQueueDepth && (best < 0 || s.load() < ws[best].load()):
				best = i
			}
		}
		return best
	}
	mine := func(s *Slot[K, J]) bool { return s.BoundSet && s.Bound == k }
	if w := find(true, mine); w >= 0 { // rule 1
		return w
	}
	if w := find(true, func(s *Slot[K, J]) bool { return !s.BoundSet }); w >= 0 { // rule 2
		p.rebind(w, k)
		return w
	}
	if w := find(false, mine); w >= 0 || avoid != nil { // rule 3
		return w // spreading a call never justifies a rebind
	}
	counts := make(map[K]int, len(ws))
	for _, s := range ws {
		if s.BoundSet {
			counts[s.Bound]++
		}
	}
	need := counts[k] + 2
	if counts[k] == 0 {
		need = 1 // a program with no worker claims from anyone rather than starve
	}
	claim := func(s *Slot[K, J]) bool { return !s.BoundSet || (s.Bound != k && counts[s.Bound] >= need) }
	w := find(true, claim) // rule 4
	if w < 0 {
		w = find(false, claim) // rule 5
	}
	if w >= 0 {
		p.rebind(w, k)
	}
	return w // -1: the program's fair share of the pool is already working for it
}

func (p *Placer[K, J]) rebind(w int, k K) {
	s := &p.Workers[w]
	if s.BoundSet && s.Bound != k {
		p.Rebinds.Inc()
	}
	s.Bound, s.BoundSet = k, true
}

// Pick takes worker w's next job: its own queue head first, then a
// steal. Only workers running a job are valid victims: an idle victim is
// about to pick its own queue, and stealing from it would serialize onto
// the thief work placement had already spread. Same-program steals (the
// victim's tail job runs on w without a reconfiguration) have no
// threshold; cross-program steals pay a reconfiguration and therefore
// need the victim at least stealBacklog deep, and they rebind the thief.
// Stealing from the tail leaves the head for the victim, which keeps
// each queue FIFO (the order between shards of one call is irrelevant —
// they write disjoint dst windows).
func (p *Placer[K, J]) Pick(w int) (J, bool) {
	s := &p.Workers[w]
	if len(s.Queue) > 0 {
		j := s.Queue[0]
		s.Queue = s.Queue[1:]
		if len(s.Queue) == 0 {
			s.Queue = nil
		}
		return j, true
	}
	victim := -1
	deeper := func(i int) bool { return victim < 0 || len(p.Workers[i].Queue) > len(p.Workers[victim].Queue) }
	if s.BoundSet {
		for i, v := range p.Workers {
			if i != w && v.Running && len(v.Queue) > 0 && p.Key(v.Queue[len(v.Queue)-1]) == s.Bound && deeper(i) {
				victim = i
			}
		}
		if victim >= 0 {
			p.ProgramSteals.Inc()
			return p.takeTail(victim), true
		}
	}
	for i, v := range p.Workers {
		if i != w && v.Running && len(v.Queue) >= stealBacklog && deeper(i) {
			victim = i
		}
	}
	if victim < 0 {
		var none J
		return none, false
	}
	j := p.takeTail(victim)
	p.CrossSteals.Inc()
	p.rebind(w, p.Key(j))
	return j, true
}

func (p *Placer[K, J]) takeTail(v int) J {
	q := p.Workers[v].Queue
	p.Workers[v].Queue = q[:len(q)-1]
	return q[len(q)-1]
}

// Gift binds program k to the first idle worker that was never bound and
// returns its index, or false when every worker has been bound. Pool.Open
// hands that worker the device it configured to validate the tenant, so
// the tenant's first shards land on a configured device. A worker that
// was never bound holds no device, so the gift replaces none: a device
// is configured only for a job its worker runs, every such job was
// placed on the worker or stolen by it, placement and stealing both bind
// the worker, and a binding is never cleared.
func (p *Placer[K, J]) Gift(k K) (int, bool) {
	for i := range p.Workers {
		if s := &p.Workers[i]; s.idle() && !s.BoundSet {
			s.Bound, s.BoundSet = k, true
			return i, true
		}
	}
	return 0, false
}
