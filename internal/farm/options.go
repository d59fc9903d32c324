package farm

import "fmt"

// Policy selects the pool's dispatch discipline.
type Policy string

const (
	// PolicyAffinity is the program-aware scheduler: shards are placed
	// on workers whose device already holds the tenant's compiled
	// program (so consecutive jobs skip reconfiguration — the
	// batch-to-amortize-setup story of the RC4 bytes-per-clock paper,
	// applied to array reconfiguration), and idle workers steal from
	// busy siblings' queues.
	PolicyAffinity Policy = "affinity"
	// PolicyRoundRobin is the legacy fixed-rotation dispatcher: shards
	// rotate over the pool regardless of which program each device
	// holds. It is the control arm of the scheduler benchmark
	// (internal/bench).
	PolicyRoundRobin Policy = "roundrobin"
)

// Options configures a worker pool. The zero value is usable: every
// field has a default, applied by NewPool.
type Options struct {
	// Workers is the pool size — the number of replicated devices.
	// Default 4.
	Workers int
	// Policy selects the dispatch discipline. Default PolicyAffinity.
	Policy Policy
}

// withDefaults validates o and fills in unset fields.
func (o Options) withDefaults() (Options, error) {
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("farm: need at least 1 worker, got %d", o.Workers)
	}
	switch o.Policy {
	case "":
		o.Policy = PolicyAffinity
	case PolicyAffinity, PolicyRoundRobin:
	default:
		return o, fmt.Errorf("farm: unknown scheduler policy %q", o.Policy)
	}
	return o, nil
}
