// Package datapath models the COBRA top-level architecture and interconnect
// (§3.1, figure 1): four interconnected 32-bit column datapaths, each a
// stack of RCEs (columns 1 and 3 carry RCE MULs), byte shufflers embedded
// before every odd row, sixteen embedded RAMs, whitening registers on the
// outputs of the last row, and a feedback multiplexor allowing iterative
// operation on the 128-bit data stream.
//
// Data flows from top to bottom through a fixed interconnect; every RCE
// receives the full 128-bit stream, with its column's block as the primary
// input INA and the remaining blocks as INB/INC/IND in ascending block
// order. The array advances one step per datapath clock cycle (Tick);
// registered RCEs latch at the end of the cycle, giving round-granular
// pipelining exactly as §4.1 describes.
package datapath

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"cobra/internal/bits"
	"cobra/internal/isa"
	"cobra/internal/rce"
)

// Architectural constants fixed by the paper.
const (
	// Cols is the number of 32-bit column datapaths (128-bit block).
	Cols = 4
	// BaseRows is the number of RCE rows in the base architecture.
	BaseRows = 4
	// ERAMBanks is the number of embedded RAMs serving each column.
	ERAMBanks = 4
	// ERAMWords is the capacity of one embedded RAM in 32-bit words.
	ERAMWords = 256
)

// Geometry describes an instance of the (tileable) architecture. The base
// architecture has 4 rows; §4 scales the architecture by adding rows, byte
// shufflers and eRAMs for deeper loop unrolling.
type Geometry struct {
	Rows int
}

// BaseGeometry returns the paper's base 4×4 configuration.
func BaseGeometry() Geometry { return Geometry{Rows: BaseRows} }

// Validate checks that the geometry is realizable: at least two rows (one
// shuffler) and an even row count so the row-pair/shuffler tiling holds.
func (g Geometry) Validate() error {
	if g.Rows < 2 || g.Rows%2 != 0 {
		return fmt.Errorf("datapath: geometry must have an even row count >= 2, got %d", g.Rows)
	}
	if g.Rows > 256 {
		return fmt.Errorf("datapath: row count %d exceeds the 8-bit slice row address", g.Rows)
	}
	return nil
}

// Shufflers returns the number of byte shufflers: one before each odd row
// (between rows 0/1 and rows 2/3 in the base architecture).
func (g Geometry) Shufflers() int { return g.Rows / 2 }

// MulColumn reports whether the column carries RCE MULs (columns 1 and 3).
func MulColumn(col int) bool { return col == 1 || col == 3 }

// whiteState is one column's whitening register.
type whiteState struct {
	mode    isa.WhiteMode
	atInput bool
	key     uint32
}

// apply performs the whitening operation on x when pos matches.
func (w whiteState) apply(x uint32, atInput bool) uint32 {
	if w.atInput != atInput {
		return x
	}
	switch w.mode {
	case isa.WhiteXor:
		return x ^ w.key
	case isa.WhiteAdd:
		return x + w.key
	default:
		return x
	}
}

// captureState is one column's eRAM capture port.
type captureState struct {
	enabled bool
	bank    uint8
	addr    uint8
}

// ERAMRef names one embedded-RAM cell.
type ERAMRef struct {
	Col, Bank, Addr int
}

// uninitTracker is the opt-in read-before-write sentinel over the embedded
// RAMs: it remembers which cells microcode has written (OpERAMWrite or a
// capture-port store) and records every advancing-cycle read — an RCE
// actively consuming its INER port, or an eRAM-playback input fetch — that
// hits a cell no write has reached. Package dataflow's uninit-read analysis
// claims exactly this set statically; the fuzz harness cross-checks the two
// in both directions.
type uninitTracker struct {
	written [Cols][ERAMBanks][ERAMWords]bool
	reads   map[ERAMRef]bool
}

func (t *uninitTracker) markWritten(col, bank, addr int) {
	t.written[col&3][bank&3][addr&0xff] = true
}

func (t *uninitTracker) readCell(col, bank, addr int) {
	col, bank, addr = col&3, bank&3, addr&0xff
	if t.written[col][bank][addr] {
		return
	}
	t.reads[ERAMRef{Col: col, Bank: bank, Addr: addr}] = true
}

// Array is the full reconfigurable datapath.
type Array struct {
	geo Geometry

	rces [][Cols]*rce.RCE
	shuf [][16]uint8 // shuf[i][dst] = src byte index

	eram [Cols][ERAMBanks][ERAMWords]uint32

	white   [Cols]whiteState
	capture [Cols]captureState
	inMux   isa.InMuxCfg

	regState [][Cols]uint32
	hold     [][Cols]bool // per-RCE output hold (OpDisOut on a slice)
	enabled  bool         // global datapath enable (OpEnOut/OpDisOut all)

	playAddr uint8 // eRAM playback address counter
	feedback bits.Block128
	output   bits.Block128

	uninit *uninitTracker // nil unless TrackUninit enabled the sentinel
}

// New builds an array for the geometry with every RCE in the identity
// configuration, identity shufflers, whitening off, external input selected
// and outputs enabled.
func New(geo Geometry) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		geo:      geo,
		rces:     make([][Cols]*rce.RCE, geo.Rows),
		shuf:     make([][16]uint8, geo.Shufflers()),
		regState: make([][Cols]uint32, geo.Rows),
		hold:     make([][Cols]bool, geo.Rows),
		enabled:  true,
	}
	cells := make([]rce.RCE, geo.Rows*Cols)
	for r := range a.rces {
		for c := 0; c < Cols; c++ {
			cell := &cells[r*Cols+c]
			cell.HasMul = MulColumn(c)
			a.rces[r][c] = cell
		}
	}
	for i := range a.shuf {
		for b := 0; b < 16; b++ {
			a.shuf[i][b] = uint8(b)
		}
	}
	return a, nil
}

// Geometry returns the array geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// RCE returns the element at (row, col) for inspection.
func (a *Array) RCE(row, col int) *rce.RCE { return a.rces[row][col] }

// forEach visits every RCE addressed by the slice.
func (a *Array) forEach(s isa.Slice, f func(row, col int) error) error {
	rows := a.geo.Rows
	switch s.Scope {
	case isa.ScopeOne:
		if int(s.Row) >= rows {
			return fmt.Errorf("datapath: slice row %d out of range (rows=%d)", s.Row, rows)
		}
		return f(int(s.Row), int(s.Col))
	case isa.ScopeCol:
		for r := 0; r < rows; r++ {
			if err := f(r, int(s.Col)); err != nil {
				return err
			}
		}
	case isa.ScopeRow:
		if int(s.Row) >= rows {
			return fmt.Errorf("datapath: slice row %d out of range (rows=%d)", s.Row, rows)
		}
		for c := 0; c < Cols; c++ {
			if err := f(int(s.Row), c); err != nil {
				return err
			}
		}
	default:
		for r := 0; r < rows; r++ {
			for c := 0; c < Cols; c++ {
				if err := f(r, c); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ApplyElem installs an element control word on every RCE in the slice.
func (a *Array) ApplyElem(s isa.Slice, e isa.Elem, data uint64) error {
	return a.forEach(s, func(r, c int) error {
		if e == isa.ElemD && !MulColumn(c) && s.Scope != isa.ScopeOne {
			// Broadcast D configuration skips plain-RCE columns so that a
			// whole-row configure of the multiplier is expressible.
			return nil
		}
		if err := a.rces[r][c].ApplyElem(e, data); err != nil {
			return fmt.Errorf("r%d.c%d: %w", r, c, err)
		}
		return nil
	})
}

// LoadLUT installs an OpLoadLUT group on every RCE in the slice.
func (a *Array) LoadLUT(s isa.Slice, addr uint16, data uint64) error {
	return a.forEach(s, func(r, c int) error {
		if err := a.rces[r][c].LoadLUT(addr, data); err != nil {
			return fmt.Errorf("r%d.c%d: %w", r, c, err)
		}
		return nil
	})
}

// SetOutEnable implements OpEnOut/OpDisOut. Scope-all toggles the global
// datapath enable used for overfull reconfiguration cycles (§3.4);
// narrower scopes freeze individual registered RCEs.
func (a *Array) SetOutEnable(s isa.Slice, enable bool) error {
	if s.Scope == isa.ScopeAll {
		a.enabled = enable
		return nil
	}
	return a.forEach(s, func(r, c int) error {
		a.hold[r][c] = !enable
		return nil
	})
}

// Enabled reports the global datapath enable state.
func (a *Array) Enabled() bool { return a.enabled }

// SetShuffler installs one half of shuffler idx's permutation.
func (a *Array) SetShuffler(idx int, cfg isa.ShufCfg) error {
	if idx < 0 || idx >= len(a.shuf) {
		return fmt.Errorf("datapath: shuffler %d out of range (have %d)", idx, len(a.shuf))
	}
	base := 0
	if cfg.High {
		base = 8
	}
	for i, p := range cfg.Perm {
		a.shuf[idx][base+i] = p & 15
	}
	return nil
}

// Shuffler returns shuffler idx's full permutation for inspection.
func (a *Array) Shuffler(idx int) [16]uint8 { return a.shuf[idx] }

// SetInMux configures the feedback/input multiplexor. Selecting eRAM
// playback resets the playback address counter to the configured start.
func (a *Array) SetInMux(cfg isa.InMuxCfg) {
	a.inMux = cfg
	if cfg.Mode == isa.InERAM {
		a.playAddr = cfg.Addr
	}
}

// InMux returns the current input multiplexor configuration.
func (a *Array) InMux() isa.InMuxCfg { return a.inMux }

// SetWhitening configures one column's whitening register.
func (a *Array) SetWhitening(cfg isa.WhiteCfg) {
	a.white[cfg.Col&3] = whiteState{mode: cfg.Mode, atInput: cfg.In, key: cfg.Key}
}

// WriteERAM stores a word in an embedded RAM (the key-load path).
func (a *Array) WriteERAM(col, bank, addr int, value uint32) {
	a.eram[col&3][bank&3][addr&0xff] = value
	if a.uninit != nil {
		a.uninit.markWritten(col, bank, addr)
	}
}

// TrackUninit arms the eRAM read-before-write sentinel with an empty
// written set and no recorded reads. Like the eRAM contents themselves the
// sentinel state survives Reset: written cells are explicit state loaded by
// microcode, and a reload replays the same writes.
func (a *Array) TrackUninit() {
	a.uninit = &uninitTracker{reads: make(map[ERAMRef]bool)}
}

// UninitReads returns every recorded read of a never-written eRAM cell,
// sorted by (col, bank, addr). It returns nil when the sentinel is off.
func (a *Array) UninitReads() []ERAMRef {
	if a.uninit == nil {
		return nil
	}
	out := make([]ERAMRef, 0, len(a.uninit.reads))
	for ref := range a.uninit.reads {
		out = append(out, ref)
	}
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.Col != y.Col {
			return x.Col < y.Col
		}
		if x.Bank != y.Bank {
			return x.Bank < y.Bank
		}
		return x.Addr < y.Addr
	})
	return out
}

// ReadERAM returns an embedded RAM word for inspection.
func (a *Array) ReadERAM(col, bank, addr int) uint32 {
	return a.eram[col&3][bank&3][addr&0xff]
}

// SetCapture configures a column's eRAM capture port.
func (a *Array) SetCapture(col int, cfg isa.CaptureCfg) {
	a.capture[col&3] = captureState{enabled: cfg.Enabled, bank: cfg.Bank, addr: cfg.Addr}
}

// Whitening returns one column's whitening register configuration for
// inspection (the fastpath recorder snapshots it per cycle).
func (a *Array) Whitening(col int) isa.WhiteCfg {
	w := a.white[col&3]
	return isa.WhiteCfg{Col: uint8(col & 3), Mode: w.mode, In: w.atInput, Key: w.key}
}

// Capture returns one column's eRAM capture port configuration for
// inspection.
func (a *Array) Capture(col int) isa.CaptureCfg {
	c := a.capture[col&3]
	return isa.CaptureCfg{Enabled: c.enabled, Bank: c.bank, Addr: c.addr}
}

// Held reports whether the RCE at (row, col) has its output register frozen
// by a narrow-scope OpDisOut.
func (a *Array) Held(row, col int) bool { return a.hold[row][col] }

// RegValue returns the current output-register contents of the RCE at
// (row, col); meaningful only for registered RCEs.
func (a *Array) RegValue(row, col int) uint32 { return a.regState[row][col] }

// Feedback returns the current feedback-register contents (the whitened
// output of the last advancing cycle, as the feedback multiplexor sees it).
func (a *Array) Feedback() bits.Block128 { return a.feedback }

// PlaybackAddr returns the eRAM playback address counter.
func (a *Array) PlaybackAddr() uint8 { return a.playAddr }

// Output returns the whitened output of the most recent advancing cycle.
func (a *Array) Output() bits.Block128 { return a.output }

// TickInput carries the external input bus state for one datapath cycle.
type TickInput struct {
	External bits.Block128
	// HaveExternal reports whether the external system is presenting a
	// block this cycle; in external-input mode the datapath stalls when no
	// block is available.
	HaveExternal bool
}

// TickResult reports what one datapath cycle did.
type TickResult struct {
	// Advanced is false when the cycle was a stall (outputs disabled, or
	// external mode with no input available); registers hold their state.
	Advanced bool
	// ConsumedExternal reports that the external block was accepted.
	ConsumedExternal bool
	// Output is the whitened 128-bit result of this cycle (valid only when
	// Advanced).
	Output bits.Block128
}

// Tick advances the datapath by one datapath clock cycle. The evaluation is
// the standard two-phase register-transfer step: presented values flow
// combinationally from the input multiplexor down through the rows (byte
// shufflers applied before each odd row), registered RCEs present their
// stored value and latch their newly computed one for the next cycle.
func (a *Array) Tick(in TickInput) TickResult {
	if !a.enabled {
		return TickResult{}
	}

	var vec bits.Block128
	consumed := false
	switch a.inMux.Mode {
	case isa.InExternal:
		if !in.HaveExternal {
			return TickResult{}
		}
		vec = in.External
		consumed = true
	case isa.InFeedback:
		vec = a.feedback
	case isa.InERAM:
		for c := 0; c < Cols; c++ {
			vec[c] = a.eram[c][a.inMux.Bank][a.playAddr]
			if a.uninit != nil {
				a.uninit.readCell(c, int(a.inMux.Bank), int(a.playAddr))
			}
		}
	}
	for c := 0; c < Cols; c++ {
		vec[c] = a.white[c].apply(vec[c], true)
	}

	// Compute presented values row by row. prev is the one-row bypass bus:
	// the vector that entered the previous row.
	prev := vec
	for r := 0; r < a.geo.Rows; r++ {
		if r%2 == 1 {
			vec = a.applyShuffler(r/2, vec)
		}
		rowIn := vec
		var blocks [8]uint32
		copy(blocks[:Cols], vec[:])
		copy(blocks[Cols:], prev[:])
		var out [Cols]uint32
		for c := 0; c < Cols; c++ {
			el := a.rces[r][c]
			inp := rce.Inputs{INER: a.eram[c][el.Cfg.ER.Bank][el.Cfg.ER.Addr]}
			for p, b := range &taps[c] {
				inp.Port[p] = blocks[b]
			}
			if a.uninit != nil && readsERAM(el.Chain()) &&
				!(el.Cfg.Reg.Enabled && a.hold[r][c]) {
				// The cycle consumes the INER word: an active element selects
				// it and the evaluated value is not discarded by a frozen
				// register.
				a.uninit.readCell(c, int(el.Cfg.ER.Bank), int(el.Cfg.ER.Addr))
			}
			v := el.Eval(&inp)
			if el.Cfg.Reg.Enabled {
				// Present, then latch in place: a register's stored value is
				// read only by its own cell within the cycle.
				out[c] = a.regState[r][c]
				if !a.hold[r][c] {
					a.regState[r][c] = v
				}
			} else {
				out[c] = v
			}
		}
		vec = bits.Block128(out)
		prev = rowIn
	}

	// Output whitening stage.
	for c := 0; c < Cols; c++ {
		vec[c] = a.white[c].apply(vec[c], false)
	}

	for c := 0; c < Cols; c++ {
		if a.capture[c].enabled {
			a.eram[c][a.capture[c].bank][a.capture[c].addr] = vec[c]
			if a.uninit != nil {
				a.uninit.markWritten(c, int(a.capture[c].bank), int(a.capture[c].addr))
			}
			a.capture[c].addr++
		}
	}
	if a.inMux.Mode == isa.InERAM {
		a.playAddr++
	}
	a.feedback = vec
	a.output = vec

	return TickResult{Advanced: true, ConsumedExternal: consumed, Output: vec}
}

// taps is the §3.1 interconnect, one row of ports per column (see Tap).
var taps = func() (t [Cols][8]uint8) {
	for c := range t {
		t[c][0] = uint8(c)
		for k := 0; k < 3; k++ {
			b := k
			if b >= c {
				b++
			}
			t[c][1+k] = uint8(b)
		}
		for p := Cols; p < 8; p++ {
			t[c][p] = uint8(p)
		}
	}
	return t
}()

// Tap resolves column col's row-input port (rce.Inputs.Port) to the block
// it reads, numbered across the current row input (0..3) and then the
// previous row's input on the one-row bypass bus (4..7). INA is the
// column's own block and INB, INC and IND are the other three in
// ascending order (§3.1); PA..PD are blocks 0..3 of the bypass bus in
// every column.
func Tap(col int, port uint8) int { return int(taps[col&3][port&7]) }

// PortValue returns what column col's row-input port reads (see Tap),
// given the current row input and the previous row's, in whatever domain
// the caller evaluates the datapath.
func PortValue[T any](col int, port uint8, cur, prev *[Cols]T) T {
	b := Tap(col, port)
	if b >= Cols {
		return prev[b-Cols]
	}
	return cur[b]
}

// readsERAM reports whether a chain consumes the eRAM read port: some
// active element selects INER.
func readsERAM(ch *rce.Chain) bool {
	for _, s := range ch.Steps() {
		if s.Operand.From == rce.FromERAM {
			return true
		}
	}
	return false
}

// applyShuffler permutes the 16 bytes of the stream through shuffler idx.
func (a *Array) applyShuffler(idx int, v bits.Block128) bits.Block128 {
	var out bits.Block128
	for dst := 0; dst < 16; dst++ {
		out = out.SetByte(dst, v.Byte(int(a.shuf[idx][dst])))
	}
	return out
}

// Reset restores power-up state: identity configurations, cleared
// registers, whitening off, external input, outputs enabled. eRAM contents
// are preserved (they are explicit state loaded by microcode).
func (a *Array) Reset() {
	for r := range a.rces {
		for c := 0; c < Cols; c++ {
			a.rces[r][c].Reset()
			a.regState[r][c] = 0
			a.hold[r][c] = false
		}
	}
	for i := range a.shuf {
		for b := 0; b < 16; b++ {
			a.shuf[i][b] = uint8(b)
		}
	}
	for c := 0; c < Cols; c++ {
		a.white[c] = whiteState{}
		a.capture[c] = captureState{}
	}
	a.inMux = isa.InMuxCfg{}
	a.enabled = true
	a.playAddr = 0
	a.feedback = bits.Block128{}
	a.output = bits.Block128{}
}

// CopyFrom's refusals, returned as values so the copy stays allocation-free.
var (
	// ErrGeometryMismatch refuses a copy between arrays of different
	// geometries.
	ErrGeometryMismatch = errors.New("datapath: copy between arrays of different geometry")
	// ErrUninitArmed refuses a copy onto an array whose uninit sentinel is
	// armed: copied eRAM contents would bypass its written set.
	ErrUninitArmed = errors.New("datapath: copy onto an array with the uninit sentinel armed")
)

// CopyFrom makes a's state a copy of src's: every RCE's configuration,
// decoded chain and LUTs, the shufflers, the eRAM contents, the whitening
// registers, capture ports and input multiplexor, the output registers and
// holds, the global enable, the playback address and the feedback and
// output vectors. It allocates nothing. It refuses an array of another
// geometry and one whose uninit sentinel is armed, and then leaves a
// unchanged; src's sentinel is not copied.
//
//cobra:hotpath
func (a *Array) CopyFrom(src *Array) error {
	if a.geo != src.geo {
		return ErrGeometryMismatch
	}
	if a.uninit != nil {
		return ErrUninitArmed
	}
	for r := range a.rces {
		for c := range a.rces[r] {
			*a.rces[r][c] = *src.rces[r][c]
		}
	}
	copy(a.shuf, src.shuf)
	a.eram = src.eram
	a.white, a.capture, a.inMux = src.white, src.capture, src.inMux
	copy(a.regState, src.regState)
	copy(a.hold, src.hold)
	a.enabled, a.playAddr = src.enabled, src.playAddr
	a.feedback, a.output = src.feedback, src.output
	return nil
}

// Describe renders the architecture and interconnect: the textual
// equivalent of the paper's figure 1.
func (a *Array) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "COBRA array: %d rows x %d cols (128-bit datapath)\n", a.geo.Rows, Cols)
	b.WriteString("input multiplexor: ")
	b.WriteString(a.inMux.Mode.String())
	b.WriteString("\n")
	for r := 0; r < a.geo.Rows; r++ {
		if r%2 == 1 {
			fmt.Fprintf(&b, "  [byte shuffler %d]\n", r/2)
		}
		fmt.Fprintf(&b, "  row %d:", r)
		for c := 0; c < Cols; c++ {
			kind := "RCE"
			if MulColumn(c) {
				kind = "RCE MUL"
			}
			fmt.Fprintf(&b, "  c%d=%s", c, kind)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  [whitening registers]  [feedback multiplexor]\n")
	fmt.Fprintf(&b, "  eRAMs: %d banks x %d words x 32 bits per column (%d total)\n",
		ERAMBanks, ERAMWords, ERAMBanks*Cols)
	return b.String()
}
