package dataflow

import (
	"errors"
	"fmt"
	"sort"

	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/model"
	"cobra/internal/rce"
	"cobra/internal/sim"
	"cobra/internal/vet"
)

// maxSteps bounds the abstract walk (instruction fetches), matching the
// simulator's default cycle guard in spirit: a program that has not closed
// its abstract state cycle within this budget gets a walk-budget finding
// instead of a hang.
const maxSteps = 1 << 22

// A fact is one definition source a word can depend on. Facts are dense
// uint32 IDs: the two input facts are fixed, the rest are allocated on
// first use and described by the fact tables below.
type factID = uint32

const (
	factPlain factID = 0 // external input consumed without KEYREQ
	factKey   factID = 1 // key material: KEYREQ input, whitening keys, stores
	factFirst factID = 2 // first dynamically allocated fact
)

// factKind distinguishes the dynamically allocated fact classes.
type factKind uint8

const (
	factElem   factKind = iota // element instance (row, col, elem)
	factStore                  // OpERAMWrite instruction (iRAM address)
	factUninit                 // never-written eRAM cell read (cell index)
	factReg                    // power-up register contents (row, col)
	factFB                     // power-up feedback register (col)
)

// factInfo describes one allocated fact.
type factInfo struct {
	kind factKind
	a, b int // kind-dependent: (row*Cols+col, elem), (addr, 0), (cell, consumerAddr), ...
}

// engine is the abstract interpreter. It runs the program on a real
// sim.Machine and evaluates every datapath cycle a second time over
// interned fact sets instead of 32-bit words: the machine's Trace hook
// records what each instruction defines, and its TickHook runs the
// abstract cycle just before the machine ticks concretely.
type engine struct {
	prog []isa.Instr
	cfg  Config

	// m runs the program; arr is its array, whose configuration the
	// abstract tick reads through the accessors the simulator uses.
	m   *sim.Machine
	arr *datapath.Array

	// Fact interning.
	facts     []factInfo // facts[id-factFirst]
	factIndex map[factInfo]factID
	single    map[factID]int // fact → set id of {fact}

	// Set interning: sets[id] is a sorted fact slice; setIndex maps its
	// rendered key; joinMemo caches pairwise joins. merged and key are
	// scratch buffers for join and intern, reused across calls.
	sets     [][]factID
	setIndex map[string]int
	joinMemo map[uint64]int
	merged   []factID
	key      []byte

	// Abstract machine state.
	eram map[int]int // cell index → set id; absent = never written
	reg  [][datapath.Cols]int
	fb   [datapath.Cols]int

	// Where configuration came from: per (cell, elem) the iRAM address of
	// the most recent OpCfgElem, used to place findings.
	cfgAddr map[int]int // (row*Cols+col)*16+elem → addr
	// captAddr is the iRAM address of each column's most recent
	// OpCfgCapture (-1: never configured), for capture-lane tap events.
	captAddr [datapath.Cols]int

	// Side-channel export (see tap.go). ticks counts advancing datapath
	// cycles from power-up; curTick is the index of the cycle currently
	// evaluating (events inside one cycle share it).
	tap     *Tap
	ticks   int
	curTick int

	// Incremental fingerprint components (XOR-mixed hashes); checkpoint
	// hashes the rest of the array's configuration afresh.
	cfgHash    uint64         // all element control words
	timingHash uint64         // control words excluding INSEL and ER
	cfgWords   map[int]uint64 // (cell*16+elem) → current data (for XOR-out)
	eramHash   uint64
	regHash    uint64
	lutHash    uint64
	// lutLoad is a LUT load the machine has executed whose new contents
	// are not yet folded into lutHash: trace sees only the old ones.
	lutLoad isa.Instr

	// Liveness accumulation.
	live       map[factID]bool // facts reaching collected outputs
	outSeen    map[[2]int]bool // (col, set id) pairs already processed
	outputs    int
	dvalidAddr int // address of the FLAG instruction that set DVALID
	inmuxAddr  int // address of the most recent OpCfgInMux

	// Analyzer event records.
	uninitEvents map[int]int     // cell index → first consumer iRAM address
	storeAddrs   map[int]bool    // executed OpERAMWrite addresses
	taintCols    map[[2]int]bool // (col, missing-fact) reported

	// Inventory: element instances seen active at an advancing cycle, and
	// distinct timing configurations folded through the model.
	inventory   map[[3]int]bool // (row, col, elem)
	timingSeen  map[uint64]bool
	timingWorst model.Timing
	timingCount int

	// Termination.
	seen     map[fingerprint]bool
	complete bool
	budget   bool // walk-budget exhausted
	execErr  *vet.Finding
	findings []vet.Finding
}

// cellIndex flattens an eRAM reference.
func cellIndex(col, bank, addr int) int {
	return ((col&3)*datapath.ERAMBanks+(bank&3))*datapath.ERAMWords + (addr & 0xff)
}

func cellRef(idx int) datapath.ERAMRef {
	return datapath.ERAMRef{
		Col:  idx / (datapath.ERAMBanks * datapath.ERAMWords),
		Bank: idx / datapath.ERAMWords % datapath.ERAMBanks,
		Addr: idx % datapath.ERAMWords,
	}
}

func newEngine(prog []isa.Instr, cfg Config) (*engine, error) {
	m, err := sim.New(datapath.Geometry{Rows: cfg.Rows}, cfg.Window)
	if err != nil {
		return nil, err
	}
	if err := m.Seq.LoadInstrs(prog); err != nil {
		return nil, err
	}
	e := &engine{
		prog:         prog,
		cfg:          cfg,
		m:            m,
		arr:          m.Array,
		factIndex:    make(map[factInfo]factID),
		single:       make(map[factID]int),
		setIndex:     make(map[string]int),
		joinMemo:     make(map[uint64]int),
		eram:         make(map[int]int),
		reg:          make([][datapath.Cols]int, cfg.Rows),
		cfgAddr:      make(map[int]int),
		cfgWords:     make(map[int]uint64),
		live:         make(map[factID]bool),
		outSeen:      make(map[[2]int]bool),
		uninitEvents: make(map[int]int),
		storeAddrs:   make(map[int]bool),
		taintCols:    make(map[[2]int]bool),
		inventory:    make(map[[3]int]bool),
		timingSeen:   make(map[uint64]bool),
		seen:         make(map[fingerprint]bool),
		dvalidAddr:   -1,
	}
	m.Trace = e.trace
	m.TickHook = e.tick
	for c := range e.captAddr {
		e.captAddr[c] = -1
	}
	e.sets = append(e.sets, nil) // set 0 = empty
	// Power-up register and feedback contents are distinct uninitialized
	// facts: reads of them are tracked through the chains like any other
	// definition, and pipeline-fill garbage is distinguishable from real
	// data.
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < datapath.Cols; c++ {
			e.reg[r][c] = e.singleton(e.fact(factInfo{kind: factReg, a: r, b: c}))
		}
	}
	for c := 0; c < datapath.Cols; c++ {
		e.fb[c] = e.singleton(e.fact(factInfo{kind: factFB, a: c}))
	}
	return e, nil
}

// --- fact/set interning ------------------------------------------------------

func (e *engine) fact(info factInfo) factID {
	if id, ok := e.factIndex[info]; ok {
		return id
	}
	id := factID(len(e.facts)) + factFirst
	e.facts = append(e.facts, info)
	e.factIndex[info] = id
	return id
}

func (e *engine) factDesc(id factID) factInfo {
	return e.facts[id-factFirst]
}

// singleton returns the set id of {f}.
func (e *engine) singleton(f factID) int {
	if id, ok := e.single[f]; ok {
		return id
	}
	id := e.intern([]factID{f})
	e.single[f] = id
	return id
}

// intern returns the id of a sorted, deduplicated fact slice.
func (e *engine) intern(fs []factID) int {
	if len(fs) == 0 {
		return 0
	}
	key := e.key[:0]
	for _, f := range fs {
		key = append(key, byte(f), byte(f>>8), byte(f>>16), byte(f>>24))
	}
	e.key = key
	if id, ok := e.setIndex[string(key)]; ok {
		return id
	}
	id := len(e.sets)
	e.sets = append(e.sets, append([]factID(nil), fs...))
	e.setIndex[string(key)] = id
	return id
}

// join returns the id of the union of two interned sets.
func (e *engine) join(a, b int) int {
	if a == b || b == 0 {
		return a
	}
	if a == 0 {
		return b
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	memoKey := uint64(lo)<<32 | uint64(hi)
	if id, ok := e.joinMemo[memoKey]; ok {
		return id
	}
	x, y := e.sets[lo], e.sets[hi]
	merged := e.merged[:0]
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			merged = append(merged, x[i])
			i++
		case x[i] > y[j]:
			merged = append(merged, y[j])
			j++
		default:
			merged = append(merged, x[i])
			i++
			j++
		}
	}
	merged = append(merged, x[i:]...)
	merged = append(merged, y[j:]...)
	e.merged = merged
	id := e.intern(merged)
	e.joinMemo[memoKey] = id
	return id
}

// taintOf projects an interned set onto the key/plaintext lattice.
func (e *engine) taintOf(set int) Taint {
	return Taint{Key: e.has(set, factKey), Plain: e.has(set, factPlain)}
}

// laneTaint resolves the taint feeding a non-data lane: empty for the base
// ISA (immediates and counters), or the named register's current taint
// when the tap's Source override rewires the lane (the seeded-defect
// model).
func (e *engine) laneTaint(site LaneSite) Taint {
	if e.tap == nil || e.tap.Source == nil {
		return Taint{}
	}
	src, ok := e.tap.Source(site)
	if !ok || src.Row < 0 || src.Row >= e.cfg.Rows || src.Col < 0 || src.Col >= datapath.Cols {
		return Taint{}
	}
	return e.taintOf(e.reg[src.Row][src.Col])
}

// has reports whether interned set s contains fact f.
func (e *engine) has(s int, f factID) bool {
	for _, g := range e.sets[s] {
		if g == f {
			return true
		}
		if g > f {
			return false
		}
	}
	return false
}

// --- hashing helpers ---------------------------------------------------------

// mix is a 64-bit finalizer (splitmix64-style) used for the incremental
// XOR-accumulated fingerprint components.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func mix2(a, b uint64) uint64 { return mix(a*0x9e3779b97f4a7c15 + b + 1) }

// --- instruction provenance --------------------------------------------------

// timingRelevant reports whether an element's control word affects static
// timing (everything except INSEL routing and the ER read-port address;
// model.Analyze ignores both).
func timingRelevant(el isa.Elem) bool {
	return el != isa.ElemInsel && el != isa.ElemER && el != isa.ElemOut
}

// recordElem maintains the incremental configuration hashes and the
// provenance map for an OpCfgElem, for exactly the cells the datapath
// writes (its forEach semantics, including the broadcast-D skip).
func (e *engine) recordElem(addr int, s isa.Slice, el isa.Elem, data uint64) {
	e.forEach(s, func(r, c int) {
		if el == isa.ElemD && !datapath.MulColumn(c) && s.Scope != isa.ScopeOne {
			return
		}
		key := (r*datapath.Cols+c)*16 + int(el)
		old := e.cfgWords[key]
		if old == data {
			e.cfgAddr[key] = addr
			return
		}
		h0 := mix2(uint64(key), old)
		h1 := mix2(uint64(key), data)
		e.cfgHash ^= h0 ^ h1
		if timingRelevant(el) {
			e.timingHash ^= h0 ^ h1
		}
		e.cfgWords[key] = data
		e.cfgAddr[key] = addr
	})
}

// forEach enumerates the cells a slice addresses (the datapath's own scope
// semantics). Out-of-range rows are skipped: the machine reports the fault
// and the walk stops, so the hash deltas for a faulting instruction never
// matter.
func (e *engine) forEach(s isa.Slice, f func(r, c int)) {
	rows := e.cfg.Rows
	switch s.Scope {
	case isa.ScopeOne:
		if int(s.Row) < rows {
			f(int(s.Row), int(s.Col))
		}
	case isa.ScopeCol:
		for r := 0; r < rows; r++ {
			f(r, int(s.Col))
		}
	case isa.ScopeRow:
		if int(s.Row) >= rows {
			return
		}
		for c := 0; c < datapath.Cols; c++ {
			f(int(s.Row), c)
		}
	default:
		for r := 0; r < rows; r++ {
			for c := 0; c < datapath.Cols; c++ {
				f(r, c)
			}
		}
	}
}

// --- the walk ----------------------------------------------------------------

// run drives the machine one datapath cycle or idle point at a time (go
// stays low, so every ready raise returns) and fingerprints the abstract
// state at each stop, until the state repeats, the program halts, an
// instruction faults, or the fetch budget runs out.
func (e *engine) run() {
	m := e.m
	for m.Stats().Instructions < maxSteps {
		reason, err := m.Run(sim.Limits{MaxCycles: 1})
		if err != nil {
			e.fault(err)
			return
		}
		if reason == sim.StopHalted {
			e.complete = true
			return
		}
		// From the first idle point on, an external block is available at
		// every consume point.
		if m.Resyncs() > 0 && m.PendingInputs() == 0 {
			m.PushInput(bits.Block128{})
		}
		m.ClearOutputs()
		if e.checkpoint(reason == sim.StopWaitGo) {
			e.complete = true
			return
		}
	}
	e.budget = true
}

// fault records a machine error as the walk's exec-fault finding. The
// machine wraps an instruction's fault with its address; a bare error is
// the sequencer fetching past the end of the program.
func (e *engine) fault(err error) {
	addr := e.m.Seq.PC()
	msg := fmt.Sprintf("control falls off the program (pc=%#x)", addr)
	if inner := errors.Unwrap(err); inner != nil {
		addr, msg = addr-1, inner.Error()
	}
	e.execErr = &vet.Finding{Addr: addr, Sev: vet.Error, Code: "exec-fault", Msg: msg}
}

// trace observes each instruction just before the machine executes it:
// provenance, abstract eRAM stores, fingerprint deltas and the control-lane
// taps.
func (e *engine) trace(addr int, in isa.Instr) {
	e.settleLUT()
	switch in.Op {
	case isa.OpCfgElem:
		e.recordElem(addr, in.Slice, in.Elem, in.Data)
	case isa.OpLoadLUT:
		e.lutHash ^= e.lutHashOf(in)
		e.lutLoad = in
	case isa.OpCfgInMux:
		e.inmuxAddr = addr
	case isa.OpERAMWrite:
		cfg := isa.DecodeERAMWrite(in.Data)
		e.storeAddrs[addr] = true
		set := e.join(e.singleton(factKey),
			e.singleton(e.fact(factInfo{kind: factStore, a: addr})))
		e.setERAM(cellIndex(int(in.Slice.Col), int(cfg.Bank), int(cfg.Addr)), set)
	case isa.OpCfgCapture:
		e.captAddr[in.Slice.Col&3] = addr
	case isa.OpCtlFlag:
		e.control(LaneFlag, addr, in.Op)
		if isa.DecodeFlag(in.Data).Set&isa.FlagDValid != 0 {
			e.dvalidAddr = addr
		}
	case isa.OpJmp:
		e.control(LaneJmp, addr, in.Op)
	}
}

// control reports a control decision to the tap.
func (e *engine) control(kind LaneKind, addr int, op isa.Opcode) {
	if e.tap != nil && e.tap.Control != nil {
		site := LaneSite{Kind: kind, Addr: addr}
		e.tap.Control(e.ticks, site, op, e.laneTaint(site))
	}
}

// settleLUT folds the last LUT load's new contents into lutHash once the
// machine has executed it (trace XORed the old contents out).
func (e *engine) settleLUT() {
	if e.lutLoad.Op == isa.OpLoadLUT {
		e.lutHash ^= e.lutHashOf(e.lutLoad)
		e.lutLoad = isa.Instr{}
	}
}

// setERAM updates one abstract eRAM cell and its hash.
func (e *engine) setERAM(cell, set int) {
	if old, ok := e.eram[cell]; ok {
		if old == set {
			return
		}
		e.eramHash ^= mix2(uint64(cell), uint64(old)+1)
	}
	e.eram[cell] = set
	e.eramHash ^= mix2(uint64(cell), uint64(set)+1)
}

// eramRead returns the abstract value of one eRAM cell; an unwritten cell
// allocates an uninit fact and records its first consumer.
func (e *engine) eramRead(cell, consumerAddr int) int {
	if set, ok := e.eram[cell]; ok {
		return set
	}
	f := e.fact(factInfo{kind: factUninit, a: cell})
	if _, ok := e.uninitEvents[cell]; !ok {
		e.uninitEvents[cell] = consumerAddr
	}
	set := e.singleton(f)
	// Cache the sentinel value so repeated reads converge instead of
	// re-deriving (keeps the state finite).
	e.eram[cell] = set
	// An uninit cell is still "unwritten" for hashing purposes only once:
	// the cached sentinel entered the map through the normal path.
	e.eramHash ^= mix2(uint64(cell), uint64(set)+1)
	return set
}

// --- per-structure hashes ----------------------------------------------------

// arrayHash hashes the array configuration that no incremental component
// covers: the hold bits, shufflers, whitening registers and capture ports.
func (e *engine) arrayHash() uint64 {
	arr := e.arr
	var h uint64
	for r := 0; r < e.cfg.Rows; r++ {
		for c := 0; c < datapath.Cols; c++ {
			if arr.Held(r, c) {
				h ^= mix2(uint64(r*datapath.Cols+c), 0x48)
			}
		}
	}
	for i := 0; i < arr.Geometry().Shufflers(); i++ {
		h ^= e.shufHashOf(i)
	}
	for c := 0; c < datapath.Cols; c++ {
		h ^= mix2(uint64(c)+200, arr.Whitening(c).Encode())
		h ^= mix2(uint64(c)+300, arr.Capture(c).Encode())
	}
	return h
}

func (e *engine) shufHashOf(idx int) uint64 {
	p := e.arr.Shuffler(idx)
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(p[i]) << (8 * i)
	}
	var w uint64
	for i := 0; i < 8; i++ {
		w |= uint64(p[8+i]) << (8 * i)
	}
	return mix2(uint64(idx)*2+100, v) ^ mix2(uint64(idx)*2+101, w)
}

// lutHashOf hashes the group a LUT load addresses, in every cell it reaches.
func (e *engine) lutHashOf(in isa.Instr) uint64 {
	var h uint64
	e.forEach(in.Slice, func(r, c int) {
		h ^= e.lutGroupHash(r*datapath.Cols+c, r, c, in.LUT)
	})
	return h
}

// lutGroupHash hashes the bytes/nibbles one OpLoadLUT group currently holds
// in cell (r, c)'s LUT store.
func (e *engine) lutGroupHash(cell, r, c int, lutAddr uint16) uint64 {
	space4, bank, group := isa.SplitLUTAddr(lutAddr)
	lut := &e.arr.RCE(r, c).LUT
	var v uint64
	if space4 {
		if group > 15 {
			return 0
		}
		for i := 0; i < 8; i++ {
			v |= uint64(lut.S4[bank][group*8+i]&0xf) << (4 * i)
		}
	} else {
		if group > 63 {
			return 0
		}
		for i := 0; i < 4; i++ {
			v |= uint64(lut.S8[bank][group*4+i]) << (8 * i)
		}
	}
	return mix2(uint64(cell)<<16|uint64(lutAddr), v+1)
}

// --- checkpoint (termination detection) --------------------------------------

// fingerprint is the complete abstract state at a checkpoint.
type fingerprint [13]uint64

// checkpoint fingerprints the complete abstract state at a cycle boundary
// or, with idle set, at an idle point. Returns true when the state repeats.
func (e *engine) checkpoint(idle bool) bool {
	e.settleLUT()
	m, arr := e.m, e.arr
	im := arr.InMux()
	var key fingerprint
	tag := uint64(0)
	if idle {
		tag = 1
	}
	key[0] = uint64(m.Seq.PC())<<32 | tag<<16 | uint64(m.Seq.Flags())
	b := uint64(0)
	if arr.Enabled() {
		b |= 1
	}
	if m.PendingInputs() > 0 {
		b |= 2
	}
	key[1] = b<<32 | uint64(im.Mode)<<16 | uint64(im.Bank)<<8 | uint64(im.Addr)
	key[2] = uint64(arr.PlaybackAddr())
	key[3] = e.cfgHash
	key[4] = e.eramHash
	key[5] = e.regHash
	key[6] = e.lutHash
	key[7] = e.arrayHash()
	for c := 0; c < datapath.Cols; c++ {
		key[8+c] = uint64(e.fb[c])
	}
	// dvalidAddr participates so output attribution stays stable; the
	// window slot is always 0 at checkpoints.
	key[12] = uint64(uint32(e.dvalidAddr))<<32 | uint64(uint32(e.inmuxAddr))
	if e.seen[key] {
		return true
	}
	e.seen[key] = true
	return false
}

// --- the abstract datapath cycle ---------------------------------------------

// tick evaluates the cycle the machine is about to run over abstract
// values: datapath.Array.Tick's phase order, shuffler and bypass-bus
// semantics, register present/latch split and eRAM captures, with every
// 32-bit word replaced by an interned fact set and every active element
// folding its own fact into the chain.
func (e *engine) tick() {
	if !e.arr.Enabled() {
		return // stall: no state moves
	}
	im := e.arr.InMux()
	if im.Mode == isa.InExternal && e.m.PendingInputs() == 0 {
		return // stall: input starvation
	}
	// The cycle definitely advances: stamp its index for tap events.
	e.curTick = e.ticks
	e.ticks++
	flags := e.m.Seq.Flags()
	var vec [datapath.Cols]int
	switch im.Mode {
	case isa.InExternal:
		in := e.singleton(factPlain)
		if flags&isa.FlagKeyReq != 0 {
			in = e.singleton(factKey)
		}
		for c := range vec {
			vec[c] = in
		}
	case isa.InFeedback:
		vec = e.fb
	case isa.InERAM:
		for c := 0; c < datapath.Cols; c++ {
			cell := cellIndex(c, int(im.Bank), int(e.arr.PlaybackAddr()))
			if e.tap != nil && e.tap.Addr != nil {
				site := LaneSite{Kind: LanePlayback, Col: c}
				e.tap.Addr(e.curTick, site, isa.ElemInsel, e.inmuxAddr, e.laneTaint(site))
			}
			vec[c] = e.eramRead(cell, e.inmuxAddr)
		}
	}
	// Input whitening: an active whitening register folds key material in.
	for c := 0; c < datapath.Cols; c++ {
		w := e.arr.Whitening(c)
		if w.Mode != isa.WhiteOff && w.In {
			vec[c] = e.join(vec[c], e.singleton(factKey))
		}
	}

	rows := e.cfg.Rows
	type pend struct {
		r, c int
		set  int
	}
	var latches []pend
	prev := vec
	newTiming := !e.timingSeen[e.timingHash]
	for r := 0; r < rows; r++ {
		if r%2 == 1 {
			vec = e.shuffle(r/2, vec)
		}
		rowIn := vec
		var out [datapath.Cols]int
		for c := 0; c < datapath.Cols; c++ {
			el := e.arr.RCE(r, c)
			held := el.Cfg.Reg.Enabled && e.arr.Held(r, c)
			var v int
			if held {
				// Frozen register: present stored value; the chain does not
				// evaluate into architectural state this cycle.
				v = e.reg[r][c]
				out[c] = v
				continue
			}
			v = e.evalCell(r, c, el, vec, prev, newTiming)
			if el.Cfg.Reg.Enabled {
				out[c] = e.reg[r][c]
				latches = append(latches, pend{r, c, e.withElemFact(v, r, c, isa.ElemReg, newTiming)})
			} else {
				out[c] = v
			}
		}
		vec = out
		prev = rowIn
	}

	// Output whitening.
	for c := 0; c < datapath.Cols; c++ {
		w := e.arr.Whitening(c)
		if w.Mode != isa.WhiteOff && !w.In {
			vec[c] = e.join(vec[c], e.singleton(factKey))
		}
	}

	// Commit: register latches and capture stores. The machine's own tick
	// advances the capture and playback addresses.
	for _, p := range latches {
		if old := e.reg[p.r][p.c]; old != p.set {
			e.regHash ^= mix2(uint64(p.r*datapath.Cols+p.c)+400, uint64(old)+1)
			e.regHash ^= mix2(uint64(p.r*datapath.Cols+p.c)+400, uint64(p.set)+1)
			e.reg[p.r][p.c] = p.set
		}
	}
	for c := 0; c < datapath.Cols; c++ {
		cap := e.arr.Capture(c)
		if cap.Enabled {
			if e.tap != nil && e.tap.Addr != nil {
				site := LaneSite{Kind: LaneCapture, Col: c}
				e.tap.Addr(e.curTick, site, isa.ElemOut, e.captAddr[c], e.laneTaint(site))
			}
			e.setERAM(cellIndex(c, int(cap.Bank), int(cap.Addr)), vec[c])
		}
	}
	e.fb = vec

	// Static timing: fold each new distinct configuration through the model.
	if newTiming {
		e.timingSeen[e.timingHash] = true
		t := model.Analyze(e.arr, model.DefaultDelays())
		e.timingCount++
		if e.timingCount == 1 || t.DatapathMHz < e.timingWorst.DatapathMHz {
			e.timingWorst = t
		}
	}

	// Output collection.
	if flags&isa.FlagDValid != 0 {
		e.outputs++
		for c := 0; c < datapath.Cols; c++ {
			if e.tap != nil && e.tap.Output != nil {
				e.tap.Output(e.curTick, c, e.taintOf(vec[c]))
			}
			key := [2]int{c, vec[c]}
			if e.outSeen[key] {
				continue
			}
			e.outSeen[key] = true
			for _, f := range e.sets[vec[c]] {
				e.live[f] = true
			}
			e.checkTaint(c, vec[c])
		}
	}
}

// shuffle permutes abstract column values through shuffler idx: destination
// word c depends on the words holding its four source bytes.
func (e *engine) shuffle(idx int, v [datapath.Cols]int) [datapath.Cols]int {
	perm := e.arr.Shuffler(idx)
	var out [datapath.Cols]int
	for c := 0; c < datapath.Cols; c++ {
		s := 0
		for i := 0; i < 4; i++ {
			src := int(perm[c*4+i]) / 4
			s = e.join(s, v[src])
		}
		out[c] = s
	}
	return out
}

// withElemFact tags a chain value with the element instance's own fact and
// (on new timing configurations) records the instance in the inventory.
func (e *engine) withElemFact(x, r, c int, el isa.Elem, record bool) int {
	if record {
		e.inventory[[3]int{r, c, int(el)}] = true
	}
	return e.join(x, e.singleton(e.fact(factInfo{kind: factElem, a: r*datapath.Cols + c, b: int(el)})))
}

// evalCell walks the cell's decoded chain over abstract values: the
// INSEL-selected port, then every active element, each folding its own
// fact and its operand's fact set into the running value.
func (e *engine) evalCell(r, c int, el *rce.RCE, vec, prev [datapath.Cols]int, newTiming bool) int {
	ch := el.Chain()
	x := datapath.PortValue(c, ch.Insel, &vec, &prev)
	for _, s := range ch.Steps() {
		cfgKey := (r*datapath.Cols+c)*16 + int(s.Elem)
		// Table-read index taint: the chain value entering a C element is
		// the LUT-bank read address; the value entering an F element indexes
		// the folded GF contribution tables in a compiled fastpath (and the
		// LUT-realized GF logic in hardware). Observed before the element's
		// own fact joins — the index is what the element consumes.
		if e.tap != nil && e.tap.Table != nil && (s.Elem == isa.ElemC || s.Elem == isa.ElemF) {
			e.tap.Table(e.curTick, r, c, s.Elem, e.cfgAddr[cfgKey], e.taintOf(x))
		}
		x = e.withElemFact(x, r, c, s.Elem, newTiming)
		switch s.Operand.From {
		case rce.FromPort:
			x = e.join(x, datapath.PortValue(c, s.Operand.Port, &vec, &prev))
		case rce.FromERAM:
			consumer := e.cfgAddr[cfgKey]
			if e.tap != nil && e.tap.Addr != nil {
				site := LaneSite{Kind: LaneERAddr, Row: r, Col: c}
				e.tap.Addr(e.curTick, site, s.Elem, consumer, e.laneTaint(site))
			}
			x = e.join(x, e.eramRead(cellIndex(c, int(el.Cfg.ER.Bank), int(el.Cfg.ER.Addr)), consumer))
		}
	}
	return x
}

// checkTaint verifies one collected output word reaches both key material
// and plaintext, reporting at the data-valid raise.
func (e *engine) checkTaint(col, set int) {
	hasKey := e.has(set, factKey)
	hasPlain := e.has(set, factPlain)
	if !hasKey && !e.taintCols[[2]int{col, 0}] {
		e.taintCols[[2]int{col, 0}] = true
		e.findings = appendFinding(e.findings, e.prog, e.dvalidAddr, vet.Error, "taint-no-key",
			fmt.Sprintf("output word of column %d carries no key material", col))
	}
	if !hasPlain && !e.taintCols[[2]int{col, 1}] {
		e.taintCols[[2]int{col, 1}] = true
		e.findings = appendFinding(e.findings, e.prog, e.dvalidAddr, vet.Error, "taint-no-plain",
			fmt.Sprintf("output word of column %d does not depend on the plaintext", col))
	}
}

// --- report ------------------------------------------------------------------

// report assembles the Result from the walked state.
func (e *engine) report(res *Result) {
	res.Complete = e.complete
	res.Outputs = e.outputs
	res.Findings = append(res.Findings, e.findings...)
	if e.execErr != nil {
		addFinding(res, e.prog, e.execErr.Addr, e.execErr.Sev, e.execErr.Code, e.execErr.Msg)
	}
	if e.budget {
		addFinding(res, e.prog, 0, vet.Warn, "walk-budget",
			fmt.Sprintf("abstract state did not close within %d steps; liveness results suppressed", maxSteps))
	}

	// Uninitialized reads: definite on any walk — the consuming cycle was
	// observed. Report the ones whose values reach an output as errors; all
	// consumed cells are exported for the dynamic cross-check.
	for cell, addr := range e.uninitEvents {
		ref := cellRef(cell)
		res.UninitReads = append(res.UninitReads, ref)
		f := e.fact(factInfo{kind: factUninit, a: cell})
		sev := vet.Warn
		note := "; the value does not reach an output"
		if e.live[f] {
			sev = vet.Error
			note = " and the value reaches the ciphertext"
		}
		addFinding(res, e.prog, addr, sev, "uninit-read",
			fmt.Sprintf("eRAM c%d.b%d[%d] is read before any write%s", ref.Col, ref.Bank, ref.Addr, note))
	}
	sortRefs(res.UninitReads)

	// Power-up register and feedback contents reaching the ciphertext: the
	// program collected output before the pipeline (or feedback loop) was
	// filled with real data.
	for f := factFirst; f < factID(len(e.facts))+factFirst; f++ {
		if !e.live[f] {
			continue
		}
		switch info := e.factDesc(f); info.kind {
		case factReg:
			addr := e.cfgAddr[(info.a*datapath.Cols+info.b)*16+int(isa.ElemReg)]
			addFinding(res, e.prog, addr, vet.Error, "uninit-read",
				fmt.Sprintf("power-up register contents of r%d.c%d reach the ciphertext", info.a, info.b))
		case factFB:
			addFinding(res, e.prog, e.inmuxAddr, vet.Error, "uninit-read",
				fmt.Sprintf("power-up feedback register of column %d reaches the ciphertext", info.a))
		}
	}

	// Timing.
	if e.timingCount > 0 {
		res.Timing = TimingReport{
			Configs:        e.timingCount,
			CriticalPathNs: e.timingWorst.CriticalPathNs,
			DatapathMHz:    e.timingWorst.DatapathMHz,
			IRAMMHz:        e.timingWorst.IRAMMHz,
		}
	}

	// Liveness claims require a complete walk with observed outputs:
	// otherwise unobserved future cycles could still consume any value.
	if !e.complete || e.outputs == 0 {
		return
	}
	gates := model.Table4()
	for inst := range e.inventory {
		r, c, el := inst[0], inst[1], isa.Elem(inst[2])
		g := elemGates(gates, el)
		res.Gates.ConfiguredElems++
		res.Gates.ConfiguredGates += g
		f := e.fact(factInfo{kind: factElem, a: r*datapath.Cols + c, b: int(el)})
		if e.live[f] {
			res.Gates.LiveElems++
			res.Gates.LiveGates += g
			continue
		}
		res.Dead = append(res.Dead, DeadElem{Row: r, Col: c, Elem: el})
		addr := e.cfgAddr[(r*datapath.Cols+c)*16+int(el)]
		addFinding(res, e.prog, addr, vet.Warn, "dead-element",
			fmt.Sprintf("%s is active but its value never reaches an output word (%d gates)",
				describeCell(r, c, el), g))
	}
	sortDead(res.Dead)
	for addr := range e.storeAddrs {
		f := e.fact(factInfo{kind: factStore, a: addr})
		if e.live[f] {
			continue
		}
		res.DeadStores = append(res.DeadStores, addr)
		addFinding(res, e.prog, addr, vet.Warn, "dead-store",
			"stored eRAM word never reaches an output word")
	}
	sortInts(res.DeadStores)
}

func sortRefs(refs []datapath.ERAMRef) {
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		return a.Addr < b.Addr
	})
}

func sortDead(d []DeadElem) {
	sort.Slice(d, func(i, j int) bool {
		a, b := d[i], d[j]
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Elem < b.Elem
	})
}

func sortInts(xs []int) { sort.Ints(xs) }
