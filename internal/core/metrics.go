package core

import (
	"sync/atomic"

	"cobra/internal/obs"
	"cobra/internal/sim"
)

// opMode indexes the per-mode metric families. Decryption modes are
// separate entries so the mixed-direction workloads of the examples show
// up as distinct series.
type opMode int

const (
	opECB opMode = iota
	opCBC
	opCTR
	opDecECB
	opDecCBC
	opModeCount
)

var opModeNames = [opModeCount]string{"ecb", "cbc", "ctr", "decrypt_ecb", "decrypt_cbc"}

// Indices of the device-level simulator-counter mirrors (one obs.Counter
// per sim.Stats field). These accumulate across BOTH engines — the
// cobra_sim_* family underneath covers only the interpreter machine — and
// are the single bookkeeping behind Report/Summary.
const (
	stCycles = iota
	stAdvanced
	stStalled
	stInstructions
	stNops
	stBlocksIn
	stBlocksOut
	statCount
)

var statMetricNames = [statCount]string{
	"cobra_device_cycles_total",
	"cobra_device_cycles_advanced_total",
	"cobra_device_cycles_stalled_total",
	"cobra_device_instructions_total",
	"cobra_device_nops_total",
	"cobra_device_blocks_in_total",
	"cobra_device_blocks_out_total",
}

var statMetricHelp = [statCount]string{
	"Datapath cycles simulated by bulk encryption, both engines.",
	"Datapath cycles that advanced the sequencer.",
	"Datapath cycles stalled on the READY/GO handshake.",
	"Microcode instructions executed (or accounted by the fastpath).",
	"NOP instructions executed.",
	"128-bit blocks consumed from the input queue.",
	"128-bit blocks produced on the output interface.",
}

// deviceMetrics is a Device's instrumentation: every series lives in one
// obs.Registry per device, detached by default so tests stay hermetic;
// the owner attaches it for export with parent.Attach(d.Obs()). All
// update paths are atomic-counter writes — no locks, no allocations —
// which is what lets farm.Report read a device's counters while its
// worker goroutine encrypts.
type deviceMetrics struct {
	reg *obs.Registry

	// Per-mode request accounting and per-call latency.
	calls  [opModeCount]*obs.Counter
	errs   [opModeCount]*obs.Counter
	blocks [opModeCount]*obs.Counter
	bytes  [opModeCount]*obs.Counter
	lat    [opModeCount]*obs.Timer

	// Engine split: which executor carried the bulk blocks.
	fastBlocks   *obs.Counter
	interpBlocks *obs.Counter

	// Why a bulk call fell back to the interpreter.
	fbDirty   *obs.Counter
	fbRefused *obs.Counter
	fbForced  *obs.Counter

	// Fastpath compiler lifecycle.
	compiles      *obs.Counter
	compileErrs   *obs.Counter
	invalidations *obs.Counter

	// sim.Stats mirrors (see statMetricNames) and their ResetStats
	// snapshots: Report subtracts the snapshot so resets never make the
	// exported counters go backwards.
	st   [statCount]*obs.Counter
	snap [statCount]atomic.Int64

	// info carries the current algorithm as a label (value 1 for the
	// active algorithm, 0 after a reconfigure away from it), since the
	// registry's own label set is fixed at creation.
	info map[Algorithm]*obs.Gauge
}

func newDeviceMetrics() *deviceMetrics {
	reg := obs.NewRegistry()
	m := &deviceMetrics{reg: reg, info: make(map[Algorithm]*obs.Gauge)}
	for md := opMode(0); md < opModeCount; md++ {
		l := obs.L("mode", opModeNames[md])
		m.calls[md] = reg.Counter("cobra_device_requests_total", "Mode-level API calls.", l)
		m.errs[md] = reg.Counter("cobra_device_errors_total", "Mode-level API calls that returned an error.", l)
		m.blocks[md] = reg.Counter("cobra_device_mode_blocks_total", "Blocks processed per mode (partial CTR blocks count as one).", l)
		m.bytes[md] = reg.Counter("cobra_device_mode_bytes_total", "Payload bytes processed per mode.", l)
		m.lat[md] = reg.Timer("cobra_device_call_duration_ns", "Wall-clock latency of one mode-level API call.", l)
	}
	m.fastBlocks = reg.Counter("cobra_device_engine_blocks_total",
		"Bulk blocks by execution engine.", obs.L("engine", "fastpath"))
	m.interpBlocks = reg.Counter("cobra_device_engine_blocks_total",
		"Bulk blocks by execution engine.", obs.L("engine", "interpreter"))
	m.fbDirty = reg.Counter("cobra_device_fastpath_fallbacks_total",
		"Bulk calls routed to the interpreter, by reason.", obs.L("reason", "dirty_machine"))
	m.fbRefused = reg.Counter("cobra_device_fastpath_fallbacks_total",
		"Bulk calls routed to the interpreter, by reason.", obs.L("reason", "compile_refused"))
	m.fbForced = reg.Counter("cobra_device_fastpath_fallbacks_total",
		"Bulk calls routed to the interpreter, by reason.", obs.L("reason", "forced_interpreter"))
	m.compiles = reg.Counter("cobra_device_fastpath_compiles_total",
		"Successful trace compilations.")
	m.compileErrs = reg.Counter("cobra_device_fastpath_compile_errors_total",
		"Refused trace compilations (program not provably steady-state).")
	m.invalidations = reg.Counter("cobra_device_fastpath_invalidations_total",
		"Compiled traces dropped by a microcode reload.")
	for i := 0; i < statCount; i++ {
		m.st[i] = reg.Counter(statMetricNames[i], statMetricHelp[i])
	}
	return m
}

// setAlg flips the info gauge to the (possibly new) algorithm.
func (m *deviceMetrics) setAlg(alg Algorithm) {
	for a, g := range m.info {
		if a != alg {
			g.Set(0)
		}
	}
	g, ok := m.info[alg]
	if !ok {
		g = m.reg.Gauge("cobra_device_info", "Configured algorithm (1 = active).",
			obs.L("alg", string(alg)))
		m.info[alg] = g
	}
	g.Set(1)
}

// noteCompile records one trace-compilation attempt.
func (m *deviceMetrics) noteCompile(ok bool) {
	if ok {
		m.compiles.Inc()
		return
	}
	m.compileErrs.Inc()
}

// addStats folds one bulk call's simulator delta into the device counters.
func (m *deviceMetrics) addStats(st sim.Stats) {
	m.st[stCycles].Add(int64(st.Cycles))
	m.st[stAdvanced].Add(int64(st.Advanced))
	m.st[stStalled].Add(int64(st.Stalled))
	m.st[stInstructions].Add(int64(st.Instructions))
	m.st[stNops].Add(int64(st.Nops))
	m.st[stBlocksIn].Add(int64(st.BlocksIn))
	m.st[stBlocksOut].Add(int64(st.BlocksOut))
}

// statsView reconstructs the accumulated sim.Stats since the last reset
// snapshot. Reads are atomic loads, so a concurrent Report (the farm
// calls one while workers encrypt) is race-free; the fields are sampled
// independently, so a view taken mid-call may mix per-field progress —
// the same self-consistency Report always had under its per-call lock.
func (m *deviceMetrics) statsView() sim.Stats {
	v := func(i int) int { return int(m.st[i].Value() - m.snap[i].Load()) }
	return sim.Stats{
		Cycles:       v(stCycles),
		Advanced:     v(stAdvanced),
		Stalled:      v(stStalled),
		Instructions: v(stInstructions),
		Nops:         v(stNops),
		BlocksIn:     v(stBlocksIn),
		BlocksOut:    v(stBlocksOut),
	}
}

// resetStats snapshots the current counter values; statsView subtracts
// them. The exported series keep counting monotonically.
func (m *deviceMetrics) resetStats() {
	for i := 0; i < statCount; i++ {
		m.snap[i].Store(m.st[i].Value())
	}
}

// finish closes out one mode-level call: error or payload accounting.
// Kept out of line from the latency span so the hot path has no defers.
func (m *deviceMetrics) finish(md opMode, nbytes int, err error) {
	if err != nil {
		m.errs[md].Inc()
		return
	}
	m.bytes[md].Add(int64(nbytes))
	m.blocks[md].Add(int64((nbytes + 15) / 16))
}
