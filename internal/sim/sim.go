// Package sim ties the iRAM sequencer to the reconfigurable datapath and
// implements the COBRA execution model of §3.3–3.4:
//
//   - The iRAM operates independently from the datapath and reconfigures it
//     during operation. Loading and executing one instruction takes two iRAM
//     clock cycles; the datapath clock is derived as
//     F_DP = F_iRAM / (2 × windowsize), so exactly `window` instructions
//     execute per datapath cycle.
//   - Underfull instruction cycles are padded with NOPs by the programmer;
//     overfull cycles are completed by disabling the RCE outputs (stall
//     cycles) until reconfiguration finishes.
//   - The machine idles after power-up until the external system signals
//     that the iRAM has been loaded, then runs the microcode. Raising the
//     ready flag halts the machine until the external system raises go;
//     the data-valid flag marks cycles whose output the external system
//     must collect.
//
// The external system of the paper's VHDL testbench is modelled by the
// Machine's input queue, output slice and Go signal.
package sim

import (
	"errors"
	"fmt"

	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/iram"
	"cobra/internal/isa"
	"cobra/internal/obs"
)

// Stats aggregates the performance counters the evaluation section reports:
// datapath cycles (Table 3's "Clock Cycles" currency), stall and advance
// breakdown, and the instruction-stream composition used for the
// overfull/underfull analysis of §3.4.
// The JSON tags are part of the repo's stable reporting surface: the same
// names appear in cobra-bench -json output, in core/farm report JSON and
// in the /metrics counter families, pinned by golden tests so the views
// cannot drift apart.
type Stats struct {
	// Cycles is the total number of datapath clock cycles.
	Cycles int `json:"cycles"`
	// Advanced counts cycles in which data moved through the array.
	Advanced int `json:"advanced"`
	// Stalled counts overfull/idle cycles (outputs disabled or input
	// starvation).
	Stalled int `json:"stalled"`
	// Instructions counts executed instruction slots, including NOPs.
	Instructions int `json:"instructions"`
	// Nops counts executed NOPs (the underfull padding of §3.4).
	Nops int `json:"nops"`
	// BlocksIn counts external blocks consumed.
	BlocksIn int `json:"blocks_in"`
	// BlocksOut counts valid output blocks collected.
	BlocksOut int `json:"blocks_out"`
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Cycles += other.Cycles
	s.Advanced += other.Advanced
	s.Stalled += other.Stalled
	s.Instructions += other.Instructions
	s.Nops += other.Nops
	s.BlocksIn += other.BlocksIn
	s.BlocksOut += other.BlocksOut
}

// Delta returns the counter movement from since to s, fieldwise s−since.
// Both snapshots must come from the same machine with no LoadProgram (which
// zeroes the counters) in between.
func (s Stats) Delta(since Stats) Stats {
	return Stats{
		Cycles:       s.Cycles - since.Cycles,
		Advanced:     s.Advanced - since.Advanced,
		Stalled:      s.Stalled - since.Stalled,
		Instructions: s.Instructions - since.Instructions,
		Nops:         s.Nops - since.Nops,
		BlocksIn:     s.BlocksIn - since.BlocksIn,
		BlocksOut:    s.BlocksOut - since.BlocksOut,
	}
}

// StopReason explains why Run returned.
type StopReason int

const (
	// StopHalted: the program executed OpHalt.
	StopHalted StopReason = iota
	// StopWaitGo: the microcode raised the ready flag and the go signal is
	// inactive; the machine idles at the current program counter.
	StopWaitGo
	// StopOutputs: the requested number of output blocks was collected.
	StopOutputs
	// StopInputs: the requested number of input blocks was consumed.
	StopInputs
	// StopCycleLimit: the cycle budget was exhausted.
	StopCycleLimit
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopHalted:
		return "halted"
	case StopWaitGo:
		return "waiting for go"
	case StopOutputs:
		return "outputs collected"
	case StopInputs:
		return "inputs consumed"
	case StopCycleLimit:
		return "cycle limit"
	}
	return "?"
}

// Limits bounds a Run call.
type Limits struct {
	// MaxCycles stops the run after this many datapath cycles (0: a large
	// default guard against runaway microcode).
	MaxCycles int
	// StopAfterOutputs returns once this many total output blocks have
	// been collected (0: don't stop on outputs).
	StopAfterOutputs int
	// StopAfterInputs returns once this many input blocks have been
	// consumed during this call (0: don't stop on inputs). The external
	// system uses it to regain control after feeding key material in the
	// §3.4 key-scheduling handshake.
	StopAfterInputs int
}

// DefaultMaxCycles guards against microcode that never halts or idles.
const DefaultMaxCycles = 1 << 22

// Machine is one COBRA device plus its external system interface.
//
// A Machine is not safe for concurrent use: it is one piece of silicon
// with a single sequencer, datapath and input/output bus, and every method
// mutates that state. To parallelize a non-feedback workload, replicate
// machines — one per goroutine — and shard the data between them, which is
// what internal/farm does.
type Machine struct {
	Array *datapath.Array
	Seq   *iram.Sequencer

	// Window is the instruction window size w (§3.4): instructions per
	// datapath cycle, F_DP = F_iRAM/(2w).
	Window int

	// Go is the external system's go signal.
	Go bool

	// Trace, when non-nil, receives every executed instruction with its
	// address, before it executes. Through it the fastpath recorder refuses
	// what a compiled trace cannot replay, dataflow's walk records
	// provenance and abstract eRAM stores, equiv's reference walk refuses
	// what it cannot prove, and cobra-sim prints each instruction under
	// -trace.
	Trace func(addr int, in isa.Instr)

	// TickHook, when non-nil, runs immediately before every datapath cycle,
	// after the window's instructions have executed — i.e. with the array
	// configuration exactly as the cycle will see it. The fastpath recorder
	// snapshots the resolved per-cycle datapath state for trace compilation,
	// and dataflow's and equiv's walks evaluate the cycle symbolically; the
	// hook must not mutate the machine.
	//
	// A machine with either hook set loads its program with program.Load,
	// which runs the configuration phase where the hooks see it: Restore
	// refuses it.
	TickHook func()

	// Obs, when non-nil, receives the machine-level counter movement of
	// every Run call (set it once, before running; see Observer).
	Obs *Observer

	stats   Stats
	inQ     []bits.Block128
	outputs []bits.Block128
	slot    int  // instructions executed within the current window
	dirty   bool // any Run since the last LoadProgram

	// resyncs and cfgInstrs are cumulative machine-lifetime counters (they
	// survive LoadProgram, unlike stats): READY-flag idle points reached
	// and configuration-class instructions executed.
	resyncs   int
	cfgInstrs int
}

// Resyncs returns the cumulative count of READY-flag idle points (§3.4
// dual-clock resynchronizations) the machine has reached.
func (m *Machine) Resyncs() int { return m.resyncs }

// ConfigInstrs returns the cumulative count of configuration-class
// instructions executed (CFGE, LUTW, SHUF, INMUX, WHITE, ERAMW, CAPT) —
// the instruction-level distributed reconfiguration traffic of §3.3.
func (m *Machine) ConfigInstrs() int { return m.cfgInstrs }

// New builds a machine around a fresh array of the given geometry.
func New(geo datapath.Geometry, window int) (*Machine, error) {
	if window < 1 {
		return nil, fmt.Errorf("sim: instruction window must be >= 1, got %d", window)
	}
	a, err := datapath.New(geo)
	if err != nil {
		return nil, err
	}
	return &Machine{Array: a, Seq: new(iram.Sequencer), Window: window}, nil
}

// LoadProgram installs microcode and resets the machine to power-up state
// (eRAM contents survive, as in the hardware).
func (m *Machine) LoadProgram(words []isa.Word) error {
	if err := m.Seq.Load(words); err != nil {
		return err
	}
	m.Array.Reset()
	m.stats = Stats{}
	m.inQ = nil
	m.outputs = nil
	m.slot = 0
	m.dirty = false
	return nil
}

// Dirty reports whether the machine has executed anything since the last
// program load settled (program.Load marks the post-setup idle point clean
// via MarkClean). Streaming (non-feedback) programs never return to the
// idle point, so a dirty machine may hold in-flight pipeline contents;
// callers that need a deterministic pipeline reload first, and
// program.Run keeps a dirty machine on the interpreter.
func (m *Machine) Dirty() bool { return m.dirty }

// MarkClean records that the machine sits at a well-defined idle point —
// the load sequence's setup phase has settled and no bulk encryption has
// run. program.Load calls it so that Dirty distinguishes "has encrypted
// since load" from "has run at all".
func (m *Machine) MarkClean() { m.dirty = false }

// Recording is a machine captured at the idle point its configuration
// phase reaches on a fresh array (§3.4: iRAM loaded, setup run, ready
// raised), with the phase's counter movement. Restore copies it onto a
// machine in place of loading the program and running the phase again. A
// Recording is immutable, and any number of machines may restore it at
// once.
type Recording struct {
	m                  *Machine
	phase              Stats
	resyncs, cfgInstrs int
}

// NewRecording takes m over as a recording. m must come from New and
// have loaded a program and run its configuration phase to the idle point
// and nothing else, so that its counters are the phase's movement; a
// phase that left input queued or output collected is refused. The caller
// must not use m afterwards.
func NewRecording(m *Machine) (*Recording, error) {
	if len(m.inQ) > 0 || len(m.outputs) > 0 {
		return nil, fmt.Errorf("sim: a recording is a machine idle after its configuration phase, with no input or output")
	}
	return &Recording{m: m, phase: m.stats, resyncs: m.resyncs, cfgInstrs: m.cfgInstrs}, nil
}

// Array returns the recorded array, for analysis; it must not be modified.
func (r *Recording) Array() *datapath.Array { return r.m.Array }

// ErrRestoreObserved refuses a Restore onto a machine with Trace or
// TickHook set: its hooks would not see the configuration phase.
var ErrRestoreObserved = errors.New("sim: restore onto a machine with a hook set; load it with program.Load")

// Restore leaves m where loading the recorded program and running its
// configuration phase on a fresh machine leaves one: the array state (see
// datapath.Array.CopyFrom), the decoded program (shared, not decoded
// again), the program counter, flags and instruction window at the idle
// point, go low, no queued input or collected output, and zero Stats. The
// phase is added to m's lifetime counters and, through m's Observer, to
// every cobra_sim_* series, exactly as a load counts it.
//
// eRAM cells the program never writes hold the fresh machine's contents,
// where a load on a used machine keeps whatever they held before.
//
// Restore refuses a machine with a hook set (ErrRestoreObserved), with
// the array's uninit sentinel armed (datapath.ErrUninitArmed) or of
// another geometry (datapath.ErrGeometryMismatch), and then leaves m
// unchanged. It allocates nothing.
//
//cobra:hotpath
func (m *Machine) Restore(rec *Recording) error {
	if m.Trace != nil || m.TickHook != nil {
		return ErrRestoreObserved
	}
	if err := m.Array.CopyFrom(rec.m.Array); err != nil {
		return err
	}
	m.Seq.CopyFrom(rec.m.Seq)
	m.Window = rec.m.Window
	m.Go = false
	m.stats = Stats{}
	m.inQ, m.outputs = nil, nil
	m.slot = 0
	m.dirty = false
	m.resyncs += rec.resyncs
	m.cfgInstrs += rec.cfgInstrs
	if m.Obs != nil {
		m.Obs.record(rec.phase, rec.resyncs, rec.cfgInstrs)
	}
	return nil
}

// PushInput queues external blocks for the input bus.
func (m *Machine) PushInput(blocks ...bits.Block128) {
	m.inQ = append(m.inQ, blocks...)
}

// PendingInputs returns the number of queued, unconsumed input blocks.
func (m *Machine) PendingInputs() int { return len(m.inQ) }

// Outputs returns the blocks collected so far (valid-output cycles).
func (m *Machine) Outputs() []bits.Block128 { return m.outputs }

// ClearOutputs discards collected outputs (between measurement phases).
func (m *Machine) ClearOutputs() { m.outputs = nil }

// Stats returns the accumulated performance counters.
func (m *Machine) Stats() Stats { return m.stats }

// ResetStats zeroes the counters (e.g. after the key-schedule phase so
// Table 3 measures bulk encryption only, as §3.4 prescribes).
func (m *Machine) ResetStats() { m.stats = Stats{} }

// Observer is a set of pre-bound obs counters the machine flushes once
// per Run call — never per tick, so instrumentation costs a handful of
// atomic adds per run, not per cycle. Build one with NewObserver; all
// fields must be non-nil.
type Observer struct {
	Runs         *obs.Counter // Run invocations
	Ticks        *obs.Counter // datapath clock cycles (windows completed)
	Advanced     *obs.Counter // cycles with data movement
	Stalled      *obs.Counter // overfull/idle cycles
	Instructions *obs.Counter // executed instruction slots, incl. NOPs
	Nops         *obs.Counter // §3.4 underfull padding
	BlocksIn     *obs.Counter // external blocks consumed
	BlocksOut    *obs.Counter // valid output blocks collected
	Resyncs      *obs.Counter // READY-flag idle points (dual-clock resync)
	ConfigInstrs *obs.Counter // configuration-class instructions
}

// NewObserver registers the machine-level counter families on r and
// returns the bound observer. The families are shared get-or-create, so
// several machines bound to one registry aggregate into one time series.
func NewObserver(r *obs.Registry) *Observer {
	return &Observer{
		Runs:         r.Counter("cobra_sim_runs_total", "sim.Machine.Run invocations"),
		Ticks:        r.Counter("cobra_sim_ticks_total", "datapath clock cycles (instruction windows completed)"),
		Advanced:     r.Counter("cobra_sim_advanced_total", "cycles in which data moved through the array"),
		Stalled:      r.Counter("cobra_sim_stalled_total", "overfull/idle cycles"),
		Instructions: r.Counter("cobra_sim_instructions_total", "executed instruction slots, including NOPs"),
		Nops:         r.Counter("cobra_sim_nops_total", "executed NOP padding instructions"),
		BlocksIn:     r.Counter("cobra_sim_blocks_in_total", "external blocks consumed"),
		BlocksOut:    r.Counter("cobra_sim_blocks_out_total", "valid output blocks collected"),
		Resyncs:      r.Counter("cobra_sim_ready_resyncs_total", "READY-flag idle points (dual-clock resynchronizations)"),
		ConfigInstrs: r.Counter("cobra_sim_config_instrs_total", "configuration-class instructions executed"),
	}
}

// record flushes one Run call's counter movement.
func (o *Observer) record(d Stats, resyncs, cfgInstrs int) {
	o.Runs.Inc()
	o.Ticks.Add(int64(d.Cycles))
	o.Advanced.Add(int64(d.Advanced))
	o.Stalled.Add(int64(d.Stalled))
	o.Instructions.Add(int64(d.Instructions))
	o.Nops.Add(int64(d.Nops))
	o.BlocksIn.Add(int64(d.BlocksIn))
	o.BlocksOut.Add(int64(d.BlocksOut))
	o.Resyncs.Add(int64(resyncs))
	o.ConfigInstrs.Add(int64(cfgInstrs))
}

// Run executes microcode until a stop condition is reached. It may be
// called repeatedly; execution resumes where it left off (idle points,
// go-waits). When an Observer is bound, the call's counter movement is
// flushed to it on return (including error returns).
func (m *Machine) Run(lim Limits) (StopReason, error) {
	if m.Obs == nil {
		return m.run(lim)
	}
	s0, r0, c0 := m.stats, m.resyncs, m.cfgInstrs
	reason, err := m.run(lim)
	m.Obs.record(m.stats.Delta(s0), m.resyncs-r0, m.cfgInstrs-c0)
	return reason, err
}

// run is the uninstrumented execution loop.
func (m *Machine) run(lim Limits) (StopReason, error) {
	maxCycles := lim.MaxCycles
	if maxCycles <= 0 {
		maxCycles = DefaultMaxCycles
	}
	cycleBudget := maxCycles
	m.dirty = true
	startIn := m.stats.BlocksIn
	for {
		in, err := m.Seq.Fetch()
		if err != nil {
			return 0, err
		}
		if m.Trace != nil {
			m.Trace(m.Seq.PC()-1, in)
		}
		m.stats.Instructions++
		halt, waitGo, readySet, err := m.execute(in)
		if err != nil {
			return 0, fmt.Errorf("sim: at %#x: %s: %w", m.Seq.PC()-1, in, err)
		}
		if halt {
			return StopHalted, nil
		}
		if readySet {
			m.resyncs++
		}
		if waitGo {
			// §3.4: halt upon detection of the ready flag; wait for go.
			m.slot = 0
			return StopWaitGo, nil
		}
		if readySet {
			// The idle point resynchronizes the dual clocks (§3.4): the
			// instruction window restarts whether or not the machine had to
			// wait for go, so window alignment is identical for every
			// block of a batch.
			m.slot = 0
			continue
		}

		m.slot++
		if m.slot < m.Window {
			continue
		}
		m.slot = 0

		// End of instruction window: one datapath clock cycle.
		if m.TickHook != nil {
			m.TickHook()
		}
		res := m.tick()
		m.stats.Cycles++
		cycleBudget--
		if res.Advanced {
			m.stats.Advanced++
		} else {
			m.stats.Stalled++
		}
		if lim.StopAfterOutputs > 0 && len(m.outputs) >= lim.StopAfterOutputs {
			// Counted against the outputs collected since ClearOutputs, so
			// repeated runs on one machine measure independently.
			return StopOutputs, nil
		}
		if lim.StopAfterInputs > 0 && m.stats.BlocksIn-startIn >= lim.StopAfterInputs {
			return StopInputs, nil
		}
		if cycleBudget <= 0 {
			return StopCycleLimit, nil
		}
	}
}

// tick advances the datapath one cycle, wiring the input queue and output
// collection to the array.
func (m *Machine) tick() datapath.TickResult {
	var ti datapath.TickInput
	if len(m.inQ) > 0 {
		ti.External = m.inQ[0]
		ti.HaveExternal = true
	}
	res := m.Array.Tick(ti)
	if res.ConsumedExternal {
		m.inQ = m.inQ[1:]
		m.stats.BlocksIn++
	}
	if res.Advanced && m.Seq.Flag(isa.FlagDValid) {
		m.outputs = append(m.outputs, res.Output)
		m.stats.BlocksOut++
	}
	return res
}

// execute dispatches one instruction to the datapath or sequencer.
// readySet reports that the ready flag was raised (the idle point), which
// resynchronizes the instruction window.
func (m *Machine) execute(in isa.Instr) (halt, waitGo, readySet bool, err error) {
	switch in.Op {
	case isa.OpNop:
		m.stats.Nops++
	case isa.OpCfgElem:
		m.cfgInstrs++
		err = m.Array.ApplyElem(in.Slice, in.Elem, in.Data)
	case isa.OpEnOut:
		err = m.Array.SetOutEnable(in.Slice, true)
	case isa.OpDisOut:
		err = m.Array.SetOutEnable(in.Slice, false)
	case isa.OpLoadLUT:
		m.cfgInstrs++
		err = m.Array.LoadLUT(in.Slice, in.LUT, in.Data)
	case isa.OpCfgShuf:
		m.cfgInstrs++
		err = m.Array.SetShuffler(int(in.Slice.Row), isa.DecodeShuf(in.Data))
	case isa.OpCfgInMux:
		m.cfgInstrs++
		m.Array.SetInMux(isa.DecodeInMux(in.Data))
	case isa.OpCfgWhite:
		m.cfgInstrs++
		m.Array.SetWhitening(isa.DecodeWhite(in.Data))
	case isa.OpERAMWrite:
		m.cfgInstrs++
		cfg := isa.DecodeERAMWrite(in.Data)
		m.Array.WriteERAM(int(in.Slice.Col), int(cfg.Bank), int(cfg.Addr), cfg.Value)
	case isa.OpCfgCapture:
		m.cfgInstrs++
		m.Array.SetCapture(int(in.Slice.Col), isa.DecodeCapture(in.Data))
	case isa.OpCtlFlag:
		cfg := isa.DecodeFlag(in.Data)
		m.Seq.SetFlags(cfg)
		if cfg.Set&isa.FlagReady != 0 {
			return false, !m.Go, true, nil
		}
	case isa.OpJmp:
		err = m.Seq.Jump(int(in.Data & 0xfff))
	case isa.OpHalt:
		return true, false, false, nil
	default:
		err = fmt.Errorf("sim: unimplemented opcode %v", in.Op)
	}
	return false, false, false, err
}

// DatapathMHz converts an iRAM clock frequency to the datapath frequency
// under the dual-clocking scheme: F_DP = F_iRAM / (2 × window) (§3.4).
func DatapathMHz(iramMHz float64, window int) float64 {
	return iramMHz / (2 * float64(window))
}
