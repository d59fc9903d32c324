package program

import (
	"fmt"

	"cobra/internal/bits"
	"cobra/internal/sim"
)

// NewMachine builds a machine matching the program's geometry and window.
func NewMachine(p *Program) (*sim.Machine, error) {
	return sim.New(p.Geometry, p.Window)
}

// Load installs the program and its instruction window and runs the setup
// phase up to the idle point (ready flag raised, §3.4), then clears the
// performance counters so subsequent measurement covers bulk encryption
// only. A machine that nothing observes can restore the program's
// recording instead (Record).
func Load(m *sim.Machine, p *Program) error {
	if err := setup(m, p); err != nil {
		return err
	}
	m.ResetStats()
	m.MarkClean()
	return nil
}

// Record runs the program's setup phase once, on a fresh machine, and
// returns that machine at the idle point as a recording: a machine
// restored from it (sim.Machine.Restore) stands where Load leaves a fresh
// one, with the phase counted as Load counts it, without running the
// phase again.
func (p *Program) Record() (*sim.Recording, error) {
	m, err := NewMachine(p)
	if err != nil {
		return nil, err
	}
	if err := setup(m, p); err != nil {
		return nil, err
	}
	return sim.NewRecording(m)
}

// setup installs the program and its window and runs the setup phase to
// the idle point.
func setup(m *sim.Machine, p *Program) error {
	m.Go = false
	if err := m.LoadProgram(p.Words()); err != nil {
		return err
	}
	m.Window = p.Window
	reason, err := m.Run(sim.Limits{})
	if err != nil {
		return err
	}
	if reason != sim.StopWaitGo {
		return fmt.Errorf("program: setup stopped with %v, want idle at ready", reason)
	}
	return nil
}

// Opts configures a Run call. It has no fields: Run always interprets,
// and a caller that wants the compiled trace calls its executor
// (Program.Compile, fastpath.Exec.EncryptInto) directly. It stays only
// for the call sites that still pass Opts{}; ROADMAP item 6 or 10 deletes
// it along with them.
type Opts struct{}

// Run is the bulk-encryption entry point: it streams src blocks through
// the loaded machine's cycle-accurate interpreter into dst and returns the
// simulator counters for exactly this call. dst must hold at least
// len(src) blocks and may alias src (inputs are staged before any output
// is written back).
//
// For streaming (full-unroll, non-feedback) programs pipeline-flush
// blocks are appended so the final outputs drain, mirroring §4.1's
// accounting of "cycles required to output the blocks in the pipeline";
// a dirty machine reloads first for a clean pipeline. The returned stats
// cover exactly this call — a snapshot delta for iterative programs and
// the full post-reload counters for streaming programs — so repeated
// calls on one machine measure independently, and the fastpath engine
// reproduces the interpreter's counters exactly.
func Run(m *sim.Machine, p *Program, dst, src []bits.Block128, _ Opts) (sim.Stats, error) {
	if len(src) == 0 {
		return sim.Stats{}, nil
	}
	if len(dst) < len(src) {
		return sim.Stats{}, fmt.Errorf("program: dst holds %d blocks, need %d", len(dst), len(src))
	}
	if p.Streaming && m.Dirty() {
		// A streaming program never returns to the idle point, so a used
		// machine still holds in-flight flush blocks whose outputs would be
		// misattributed to this call. Reload for a clean pipeline (the
		// setup phase re-runs; counters restart at zero). A caller that
		// holds the program's recording restores it before the call
		// instead, as core.Device does, and never reaches this reload.
		if err := Load(m, p); err != nil {
			return sim.Stats{}, err
		}
	}
	start := m.Stats()
	m.ClearOutputs()
	m.PushInput(src...)
	if p.Streaming {
		var flush bits.Block128
		for i := 0; i < p.PipelineDepth+1; i++ {
			m.PushInput(flush)
		}
	}
	m.Go = true
	reason, err := m.Run(sim.Limits{StopAfterOutputs: len(src)})
	if err != nil {
		return sim.Stats{}, err
	}
	if reason != sim.StopOutputs {
		return sim.Stats{}, fmt.Errorf("program: run stopped with %v before %d outputs (got %d)",
			reason, len(src), len(m.Outputs()))
	}
	copy(dst, m.Outputs()[:len(src)])
	return m.Stats().Delta(start), nil
}

// RunBytes is Run for byte-oriented callers: src must be a multiple of 16
// bytes (128-bit blocks); dst must hold at least len(src) bytes and may
// alias src.
func RunBytes(m *sim.Machine, p *Program, dst, src []byte, o Opts) (sim.Stats, error) {
	if len(src)%16 != 0 {
		return sim.Stats{}, fmt.Errorf("program: input length %d is not a multiple of the block size", len(src))
	}
	if len(dst) < len(src) {
		return sim.Stats{}, fmt.Errorf("program: dst is %d bytes, need %d", len(dst), len(src))
	}
	blocks := make([]bits.Block128, len(src)/16)
	for i := range blocks {
		blocks[i] = bits.LoadBlock128(src[16*i:])
	}
	stats, err := Run(m, p, blocks, blocks, o)
	if err != nil {
		return stats, err
	}
	for i, blk := range blocks {
		blk.StoreBlock128(dst[16*i:])
	}
	return stats, nil
}
