package dataflow

import (
	"sort"

	"cobra/internal/isa"
	"cobra/internal/vet"
)

// This file is the engine's export surface for side-channel analysis
// (package sca): the abstract walk already computes, for every word in
// flight, the interned fact set it depends on. A Tap receives the
// key/plaintext projection of those sets at exactly the places cache and
// timing side channels live — table-read index lanes, eRAM address lanes,
// and the iRAM control path — without changing what the walk computes.

// Taint is the key/plaintext projection of an interned fact set: whether
// the word structurally depends on key material and/or plaintext. The
// richer fact structure (element instances, stores, power-up state) stays
// inside the engine; side-channel classification only needs these two bits.
type Taint struct {
	Key   bool
	Plain bool
}

// Tainted reports whether the value depends on any secret input at all
// (key material or plaintext — both are secret to a cache observer).
func (t Taint) Tainted() bool { return t.Key || t.Plain }

// Or joins two taints.
func (t Taint) Or(o Taint) Taint { return Taint{t.Key || o.Key, t.Plain || o.Plain} }

func (t Taint) String() string {
	switch {
	case t.Key && t.Plain:
		return "{key,plain}"
	case t.Key:
		return "{key}"
	case t.Plain:
		return "{plain}"
	}
	return "{}"
}

// LaneKind names one non-data lane of the machine: a place where an
// address or control decision is formed rather than a datapath word
// computed. In the base ISA every one of these lanes is fed by an
// instruction immediate or a hardware counter — never by the datapath —
// which is exactly the property the sca analyzer verifies (and the
// property a Tap.Source override deliberately breaks for seeded-defect
// tests).
type LaneKind uint8

const (
	// LaneJmp is an OpJmp target: the sequencer's only redirection.
	LaneJmp LaneKind = iota
	// LaneFlag is an OpCtlFlag set/clear word: the ready/busy/data-valid
	// handshake gates.
	LaneFlag
	// LaneERAddr is an RCE's ER read-port address (bank/addr of an INER
	// operand).
	LaneERAddr
	// LanePlayback is the playback counter feeding the per-column input
	// address in InERAM mode.
	LanePlayback
	// LaneCapture is a capture port's write address.
	LaneCapture
)

func (k LaneKind) String() string {
	switch k {
	case LaneJmp:
		return "jmp-target"
	case LaneFlag:
		return "handshake-flag"
	case LaneERAddr:
		return "eRAM-read-address"
	case LanePlayback:
		return "playback-address"
	case LaneCapture:
		return "capture-address"
	}
	return "lane?"
}

// LaneSite identifies one lane instance. Control lanes (LaneJmp, LaneFlag)
// are identified by the instruction's iRAM address; address lanes by the
// consuming RCE (LaneERAddr) or column (LanePlayback, LaneCapture).
type LaneSite struct {
	Kind     LaneKind
	Addr     int // iRAM address (control lanes; 0 otherwise)
	Row, Col int
}

// RegSource names an RCE output register as a lane's feeding source — the
// seeded-defect model for Tap.Source.
type RegSource struct {
	Row, Col int
}

// Tap receives lane observations during the abstract walk. Every callback
// is optional. Ticks count advancing datapath cycles from power-up;
// control events carry the count of cycles completed when the instruction
// executed. Callbacks observe; they must not retain the engine or assume
// any call order beyond the walk's own.
type Tap struct {
	// Table fires once per active C or F element evaluation at an advancing
	// cycle: taint is the chain value entering the element — the table-read
	// index for C's LUT banks, the byte values indexing the F element's
	// folded GF contribution tables in a compiled fastpath. cfgAddr is the
	// iRAM address of the element's most recent configuration word.
	Table func(tick, row, col int, elem isa.Elem, cfgAddr int, taint Taint)
	// Addr fires once per eRAM address-lane resolution: an INER operand
	// read (LaneERAddr, elem = the consuming element), a playback-mode
	// input word (LanePlayback), or a capture-port store (LaneCapture).
	// In the base ISA these addresses are immediates or counters, so taint
	// is empty unless a Source override rewires the lane.
	Addr func(tick int, site LaneSite, elem isa.Elem, cfgAddr int, taint Taint)
	// Control fires once per control-lane instruction execution: an OpJmp
	// target or an OpCtlFlag handshake word.
	Control func(tick int, site LaneSite, op isa.Opcode, taint Taint)
	// Output fires per column at every collected output cycle with the
	// output word's taint.
	Output func(tick, col int, taint Taint)
	// Source optionally rewires a lane to be fed by an RCE output register
	// instead of its instruction immediate or hardware counter: the lane's
	// reported taint becomes the register's current taint. This is the
	// seeded-defect model — a fault or hostile toolchain routing datapath
	// state into an address or control lane, inexpressible in the base ISA
	// (which is exactly the property sca verifies). The override affects
	// only the reported taint, not the walked data flow.
	Source func(site LaneSite) (RegSource, bool)
}

// AnalyzeTap runs the abstract walk with a Tap attached; the Result is
// identical to Analyze's. A nil tap is Analyze exactly.
func AnalyzeTap(prog []isa.Instr, cfg Config, tap *Tap) *Result {
	cfg = cfg.normalized()
	res := &Result{}
	e, err := newEngine(prog, cfg)
	if err != nil {
		// The machine refused the geometry or the whole program, so the
		// finding names no instruction.
		res.Findings = append(res.Findings, vet.Finding{Sev: vet.Error, Code: "exec-fault", Msg: err.Error()})
		return res
	}
	e.tap = tap
	e.run()
	e.report(res)
	sort.SliceStable(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
	return res
}
