package fastpath

import (
	"fmt"

	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/rce"
	"cobra/internal/sim"
)

// recBlocks is the number of output blocks the recorder observes: one head
// segment plus recBlocks−1 steady periods, of which every pair is compared.
// Four verified period repetitions is already redundant — control-state
// equality at one period boundary proves the schedule (see package doc) —
// but redundancy is cheap here and catches recorder bugs.
const recBlocks = 6

// rceSnap is the complete per-cycle control state of one RCE: its control
// registers, the eRAM word its read port presents (resolved, so the
// compiled trace is free of eRAM lookups), and its hold state.
type rceSnap struct {
	cfg  rce.Config
	iner uint32
	hold bool
}

// tickSnap is the complete resolved control state of the machine at one
// datapath cycle, captured by the TickHook just before the cycle runs,
// plus the counter snapshot used to segment the stream.
type tickSnap struct {
	pc       int
	flags    uint16
	enabled  bool
	inMode   isa.InMuxMode
	playAddr uint8
	eramVec  bits.Block128 // resolved playback words (InERAM mode)
	white    [datapath.Cols]isa.WhiteCfg
	capture  [datapath.Cols]bool
	shuf     [][16]uint8
	rces     []rceSnap
	preStats sim.Stats
}

// equalSnap compares two cycle snapshots field by field.
func equalSnap(a, b *tickSnap) bool {
	if a.pc != b.pc || a.flags != b.flags || a.enabled != b.enabled ||
		a.inMode != b.inMode || a.playAddr != b.playAddr || a.eramVec != b.eramVec ||
		a.white != b.white || a.capture != b.capture {
		return false
	}
	for i := range a.shuf {
		if a.shuf[i] != b.shuf[i] {
			return false
		}
	}
	for i := range a.rces {
		if a.rces[i] != b.rces[i] {
			return false
		}
	}
	return true
}

// recording is the raw material Compile works from: the cycle stream of one
// recorded bulk-encryption run and the machine it ran on.
type recording struct {
	m      *sim.Machine
	ticks  []*tickSnap
	final  sim.Stats
	hazard error // set by the Trace watcher on non-replayable instructions

	initReg [][datapath.Cols]uint32
	initFB  bits.Block128
}

// snapshot captures the machine's control state for the cycle about to run.
func (rec *recording) snapshot() {
	m := rec.m
	a := m.Array
	rows := a.Geometry().Rows
	s := &tickSnap{
		pc:       m.Seq.PC(),
		flags:    m.Seq.Flags(),
		enabled:  a.Enabled(),
		inMode:   a.InMux().Mode,
		playAddr: a.PlaybackAddr(),
		shuf:     make([][16]uint8, a.Geometry().Shufflers()),
		rces:     make([]rceSnap, rows*datapath.Cols),
		preStats: m.Stats(),
	}
	if s.inMode == isa.InERAM {
		bank := int(a.InMux().Bank)
		for c := 0; c < datapath.Cols; c++ {
			s.eramVec[c] = a.ReadERAM(c, bank, int(s.playAddr))
		}
	}
	for c := 0; c < datapath.Cols; c++ {
		s.white[c] = a.Whitening(c)
		s.capture[c] = a.Capture(c).Enabled
	}
	for i := range s.shuf {
		s.shuf[i] = a.Shuffler(i)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < datapath.Cols; c++ {
			el := a.RCE(r, c)
			s.rces[r*datapath.Cols+c] = rceSnap{
				cfg:  el.Cfg,
				iner: a.ReadERAM(c, int(el.Cfg.ER.Bank), int(el.Cfg.ER.Addr)),
				hold: a.Held(r, c),
			}
		}
	}
	rec.ticks = append(rec.ticks, s)
}

// Hazard returns an error wrapping ErrNotSteady when the instruction at
// addr, executed during bulk encryption, is one a compiled trace cannot
// replay: anything that mutates state the recorder resolved to immediates
// (eRAM, LUTs) or that writes back into the eRAMs per cycle (capture). It
// returns nil for every other instruction. The recorder and the reference
// walk of internal/equiv both refuse a bulk phase through it.
func Hazard(addr int, in isa.Instr) error {
	switch in.Op {
	case isa.OpERAMWrite:
		return fmt.Errorf("%w: eRAM write at %#x during bulk encryption", ErrNotSteady, addr)
	case isa.OpLoadLUT:
		return fmt.Errorf("%w: LUT load at %#x during bulk encryption", ErrNotSteady, addr)
	case isa.OpCfgCapture:
		if isa.DecodeCapture(in.Data).Enabled {
			return fmt.Errorf("%w: capture port enabled at %#x during bulk encryption", ErrNotSteady, addr)
		}
	}
	return nil
}

// watch keeps the first hazard of the recorded run.
func (rec *recording) watch(addr int, in isa.Instr) {
	if rec.hazard == nil {
		rec.hazard = Hazard(addr, in)
	}
}

// record loads the program on a scratch machine and runs the setup phase
// to the idle point, or restores src.Setup there, then records a
// recBlocks-output bulk-encryption run with deterministic inputs.
func record(src Source) (*recording, error) {
	if src.Window < 1 {
		return nil, fmt.Errorf("fastpath: %s: window %d", src.Name, src.Window)
	}
	m, err := sim.New(src.Geometry, src.Window)
	if err != nil {
		return nil, err
	}
	if src.Setup != nil {
		if err := m.Restore(src.Setup); err != nil {
			return nil, err
		}
	} else {
		m.Go = false
		if err := m.LoadProgram(src.Words); err != nil {
			return nil, err
		}
		reason, err := m.Run(sim.Limits{})
		if err != nil {
			return nil, err
		}
		if reason != sim.StopWaitGo {
			return nil, fmt.Errorf("%w: %s: setup stopped with %v, want idle at ready", ErrNotSteady, src.Name, reason)
		}
		m.ResetStats()
	}

	rec := &recording{m: m}
	rows := src.Geometry.Rows
	rec.initReg = make([][datapath.Cols]uint32, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < datapath.Cols; c++ {
			rec.initReg[r][c] = m.Array.RegValue(r, c)
		}
	}
	rec.initFB = m.Array.Feedback()

	// Deterministic input batch (xorshift32); values are irrelevant to the
	// recorded control stream — the self-check below replays exactly these.
	m.PushInput(recordInputs(recBlocks, src)...)

	m.TickHook = rec.snapshot
	m.Trace = rec.watch
	m.Go = true
	reason, err := m.Run(sim.Limits{StopAfterOutputs: recBlocks})
	m.TickHook = nil
	m.Trace = nil
	if err != nil {
		return nil, err
	}
	if rec.hazard != nil {
		return nil, rec.hazard
	}
	if reason != sim.StopOutputs {
		return nil, fmt.Errorf("%w: %s: recording run stopped with %v before %d outputs",
			ErrNotSteady, src.Name, reason, recBlocks)
	}
	rec.final = m.Stats()
	return rec, nil
}

// recordInputs builds the recording batch: recBlocks pseudo-random blocks,
// plus pipeline flush for streaming programs, exactly as
// program.Run would push them.
func recordInputs(n int, src Source) []bits.Block128 {
	total := n
	if src.Streaming {
		total += src.PipelineDepth + 1
	}
	in := make([]bits.Block128, total)
	seed := uint32(0x9e3779b9)
	for i := 0; i < n; i++ {
		for c := 0; c < datapath.Cols; c++ {
			seed ^= seed << 13
			seed ^= seed >> 17
			seed ^= seed << 5
			in[i][c] = seed
		}
	}
	return in
}

// postStats returns the counter snapshot just after tick t.
func (rec *recording) postStats(t int) sim.Stats {
	if t+1 < len(rec.ticks) {
		return rec.ticks[t+1].preStats
	}
	return rec.final
}

// outputTicks returns the indices of ticks that emitted an output block.
func (rec *recording) outputTicks() []int {
	var out []int
	for t := range rec.ticks {
		if rec.postStats(t).BlocksOut > rec.ticks[t].preStats.BlocksOut {
			out = append(out, t)
		}
	}
	return out
}
