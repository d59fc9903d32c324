package equiv

import (
	"fmt"
	"strings"

	"cobra/internal/bits"
)

// xid identifies one hash-consed expression node in an Arena. Structural
// equality of canonicalized expressions is id equality: both symbolic
// executors build into one shared arena, so proving two output words equal
// is a single integer comparison.
type xid uint32

// opKind enumerates the expression node kinds: one per word-level operation
// either execution side can perform. The set is closed over both rce.Eval
// (the microcode reference semantics) and the fastpath step kinds, so the
// two sides build structurally identical nodes for equivalent operations.
type opKind uint8

const (
	opConst opKind = iota
	opInput        // aux = blk<<2 | col: word col of the blk-th consumed input block

	// N-ary commutative/associative ops: args sorted by id, constant term
	// folded into val (see the constructor invariants below).
	opXor
	opAnd
	opOr
	opAdd // aux = bits.Width; args may repeat (x+x is not x)
	opMul // aux = bits.Width; val is the folded coefficient

	opSub    // aux = bits.Width; args = [x, y], y non-const
	opSquare // bits.SquareMod32

	opShl  // aux = amount 1..31
	opShr  // aux = amount 1..31
	opRotl // aux = amount 1..31

	opShlVar // args = [x, amt]; aux = 1 when the E element negates the amount
	opShrVar // low 5 bits of amt select the distance
	opRotlVar

	opS8     // aux = S8 table id: 4 lanes through per-lane 256×8 tables
	opS4     // aux = table id<<3 | page: 8 nibble lanes, tables shared pair-wise
	opS8to32 // aux = table id<<2 | byte select: one byte through all four banks
	opGF     // aux = F mode (1 lanes, 2 MDS); val = packed constants
	opGFRaw  // aux = raw 4×256×32 table id (unrecoverable compiled F tables)

	opByte  // aux = byte index 0..3: (x >> 8i) & 0xff
	opPack4 // args = [b0..b3]: b0 | b1<<8 | b2<<16 | b3<<24 (bytes masked)

	opVar // aux = variable index: a generalized carried-state word (inductive step)
)

// node is one interned expression. Nodes are immutable after creation.
type node struct {
	op   opKind
	aux  uint32
	val  uint32
	args []xid
}

// Arena is the hash-consing store: every distinct canonical expression is
// materialized exactly once, so structurally equal expressions always get
// the same xid. Lookup tables are interned by content through the same
// mechanism — equal tables share one id regardless of which side loaded
// them.
type Arena struct {
	nodes []node
	index map[string]xid

	s8Tabs  []*[4][256]uint8
	s8Index map[string]uint32
	s4Tabs  []*[4][128]uint8
	s4Index map[string]uint32
	gfTabs  []*[4][256]uint32
	gfIndex map[string]uint32

	consts map[uint32]xid // fast path for the dominant node kind
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		index:   make(map[string]xid),
		s8Index: make(map[string]uint32),
		s4Index: make(map[string]uint32),
		gfIndex: make(map[string]uint32),
		consts:  make(map[uint32]xid),
	}
}

// Size returns the number of interned nodes.
func (a *Arena) Size() int { return len(a.nodes) }

// intern returns the id of a node, creating it if unseen. The key encodes
// every identity-bearing field, so two nodes collide exactly when they are
// structurally identical.
func (a *Arena) intern(n node) xid {
	var sb strings.Builder
	sb.Grow(13 + 4*len(n.args))
	sb.WriteByte(byte(n.op))
	putU32(&sb, n.aux)
	putU32(&sb, n.val)
	for _, arg := range n.args {
		putU32(&sb, uint32(arg))
	}
	k := sb.String()
	if id, ok := a.index[k]; ok {
		return id
	}
	id := xid(len(a.nodes))
	a.nodes = append(a.nodes, n)
	a.index[k] = id
	return id
}

func putU32(sb *strings.Builder, v uint32) {
	sb.WriteByte(byte(v))
	sb.WriteByte(byte(v >> 8))
	sb.WriteByte(byte(v >> 16))
	sb.WriteByte(byte(v >> 24))
}

// Const interns a constant word.
func (a *Arena) Const(v uint32) xid {
	if id, ok := a.consts[v]; ok {
		return id
	}
	id := a.intern(node{op: opConst, val: v})
	a.consts[v] = id
	return id
}

// Input interns the symbolic variable for word col of the blk-th input
// block consumed from the external bus.
func (a *Arena) Input(blk, col int) xid {
	return a.intern(node{op: opInput, aux: uint32(blk)<<2 | uint32(col&3)})
}

// Var interns a generalized carried-state variable: the inductive step
// replaces boundary register/feedback words with fresh vars so one
// symbolic period proves the property for every reachable carried state.
func (a *Arena) Var(idx uint32) xid {
	return a.intern(node{op: opVar, aux: idx})
}

func (a *Arena) isConst(id xid) (uint32, bool) {
	n := &a.nodes[id]
	if n.op == opConst {
		return n.val, true
	}
	return 0, false
}

// --- table interning ---------------------------------------------------------

// InternS8 interns a 4×256×8 LUT bank set by content.
func (a *Arena) InternS8(t *[4][256]uint8) uint32 {
	var sb strings.Builder
	sb.Grow(4 * 256)
	for b := range t {
		sb.Write(t[b][:])
	}
	k := sb.String()
	if id, ok := a.s8Index[k]; ok {
		return id
	}
	cp := *t
	id := uint32(len(a.s8Tabs))
	a.s8Tabs = append(a.s8Tabs, &cp)
	a.s8Index[k] = id
	return id
}

// InternS4 interns a 4×128×4 LUT bank set by content (low nibbles only, the
// stored representation).
func (a *Arena) InternS4(t *[4][128]uint8) uint32 {
	var sb strings.Builder
	sb.Grow(4 * 128)
	for b := range t {
		sb.Write(t[b][:])
	}
	k := sb.String()
	if id, ok := a.s4Index[k]; ok {
		return id
	}
	cp := *t
	id := uint32(len(a.s4Tabs))
	a.s4Tabs = append(a.s4Tabs, &cp)
	a.s4Index[k] = id
	return id
}

// InternGFRaw interns a compiled 4×256×32 F-element table by content; used
// only when the table cannot be re-expanded to its defining GF expression.
func (a *Arena) InternGFRaw(t *[4][256]uint32) uint32 {
	var sb strings.Builder
	sb.Grow(4 * 256 * 4)
	for b := range t {
		for _, w := range t[b] {
			putU32(&sb, w)
		}
	}
	k := sb.String()
	if id, ok := a.gfIndex[k]; ok {
		return id
	}
	cp := *t
	id := uint32(len(a.gfTabs))
	a.gfTabs = append(a.gfTabs, &cp)
	a.gfIndex[k] = id
	return id
}

// --- n-ary commutative constructors ------------------------------------------

// flatten gathers the non-const operands of an n-ary node of kind op (with
// matching aux), recursing one level into same-kind children, and folds
// constants through fold.
func (a *Arena) flatten(op opKind, aux uint32, acc *uint32, fold func(uint32, uint32) uint32, args *[]xid, id xid) {
	n := &a.nodes[id]
	if n.op == opConst {
		*acc = fold(*acc, n.val)
		return
	}
	if n.op == op && n.aux == aux {
		*acc = fold(*acc, n.val)
		*args = append(*args, n.args...)
		return
	}
	*args = append(*args, id)
}

func sortXids(xs []xid) {
	// Insertion sort: operand lists are tiny (almost always 2-4).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Xor builds x ^ y canonically: operands flattened, constants folded into
// the node's val, args sorted, and equal pairs cancelled (x ^ x = 0).
func (a *Arena) Xor(x, y xid) xid {
	acc := uint32(0)
	fold := func(p, q uint32) uint32 { return p ^ q }
	var args []xid
	a.flatten(opXor, 0, &acc, fold, &args, x)
	a.flatten(opXor, 0, &acc, fold, &args, y)
	sortXids(args)
	// Cancel pairs: any arg appearing an even number of times vanishes.
	out := args[:0]
	for i := 0; i < len(args); {
		j := i
		for j < len(args) && args[j] == args[i] {
			j++
		}
		if (j-i)%2 == 1 {
			out = append(out, args[i])
		}
		i = j
	}
	switch {
	case len(out) == 0:
		return a.Const(acc)
	case len(out) == 1 && acc == 0:
		return out[0]
	}
	return a.intern(node{op: opXor, val: acc, args: append([]xid(nil), out...)})
}

// And builds x & y canonically: flattened, deduplicated (x & x = x),
// constants folded; the all-ones constant is the identity and zero
// annihilates.
func (a *Arena) And(x, y xid) xid {
	acc := ^uint32(0)
	fold := func(p, q uint32) uint32 { return p & q }
	var args []xid
	a.flatten(opAnd, 0, &acc, fold, &args, x)
	a.flatten(opAnd, 0, &acc, fold, &args, y)
	if acc == 0 {
		return a.Const(0)
	}
	sortXids(args)
	args = dedupeXids(args)
	switch {
	case len(args) == 0:
		return a.Const(acc)
	case len(args) == 1 && acc == ^uint32(0):
		return args[0]
	}
	return a.intern(node{op: opAnd, val: acc, args: args})
}

// Or builds x | y canonically (dual of And).
func (a *Arena) Or(x, y xid) xid {
	acc := uint32(0)
	fold := func(p, q uint32) uint32 { return p | q }
	var args []xid
	a.flatten(opOr, 0, &acc, fold, &args, x)
	a.flatten(opOr, 0, &acc, fold, &args, y)
	if acc == ^uint32(0) {
		return a.Const(^uint32(0))
	}
	sortXids(args)
	args = dedupeXids(args)
	switch {
	case len(args) == 0:
		return a.Const(acc)
	case len(args) == 1 && acc == 0:
		return args[0]
	}
	return a.intern(node{op: opOr, val: acc, args: args})
}

func dedupeXids(xs []xid) []xid {
	out := xs[:0]
	for i, v := range xs {
		if i == 0 || v != xs[i-1] {
			out = append(out, v)
		}
	}
	return append([]xid(nil), out...)
}

// Add builds x + y (lane-wise modulo 2^8/2^16/2^32 per w) canonically:
// flattened per width, constants folded with bits.AddMod, args sorted but
// not deduplicated (addition is not idempotent).
func (a *Arena) Add(x, y xid, w bits.Width) xid {
	acc := uint32(0)
	fold := func(p, q uint32) uint32 { return bits.AddMod(p, q, w) }
	var args []xid
	a.flatten(opAdd, uint32(w), &acc, fold, &args, x)
	a.flatten(opAdd, uint32(w), &acc, fold, &args, y)
	sortXids(args)
	switch {
	case len(args) == 0:
		return a.Const(acc)
	case len(args) == 1 && acc == 0:
		return args[0]
	}
	return a.intern(node{op: opAdd, aux: uint32(w), val: acc, args: append([]xid(nil), args...)})
}

// Sub builds x - y at width w. A constant subtrahend becomes an addition of
// its lane-wise negation, so key subtraction and the equivalent negated-key
// addition canonicalize identically; x - x folds to zero.
func (a *Arena) Sub(x, y xid, w bits.Width) xid {
	if c, ok := a.isConst(y); ok {
		return a.Add(x, a.Const(bits.SubMod(0, c, w)), w)
	}
	if x == y {
		return a.Const(0)
	}
	if cx, ok := a.isConst(x); ok {
		if cy, ok2 := a.isConst(y); ok2 {
			return a.Const(bits.SubMod(cx, cy, w))
		}
	}
	return a.intern(node{op: opSub, aux: uint32(w), args: []xid{x, y}})
}

// mulIdent returns the multiplicative identity word at width w. W8 behaves
// as W16 to match bits.MulMod (the D element has no 8-bit width).
func mulIdent(w bits.Width) uint32 {
	if w == bits.W32 {
		return 1
	}
	return 0x00010001
}

// Mul builds x * y (lane-wise modulo per width) canonically: flattened,
// constant coefficient folded with bits.MulMod, identity dropped, zero
// annihilates.
func (a *Arena) Mul(x, y xid, w bits.Width) xid {
	acc := mulIdent(w)
	fold := func(p, q uint32) uint32 { return bits.MulMod(p, q, w) }
	var args []xid
	a.flatten(opMul, uint32(w), &acc, fold, &args, x)
	a.flatten(opMul, uint32(w), &acc, fold, &args, y)
	if acc == 0 {
		return a.Const(0)
	}
	sortXids(args)
	switch {
	case len(args) == 0:
		return a.Const(acc)
	case len(args) == 1 && acc == mulIdent(w):
		return args[0]
	}
	return a.intern(node{op: opMul, aux: uint32(w), val: acc, args: append([]xid(nil), args...)})
}

// Square builds bits.SquareMod32(x).
func (a *Arena) Square(x xid) xid {
	if c, ok := a.isConst(x); ok {
		return a.Const(bits.SquareMod32(c))
	}
	return a.intern(node{op: opSquare, args: []xid{x}})
}

// --- shifts and rotates ------------------------------------------------------

// Shl builds x << amt with bits.Shl saturation (amt >= 32 yields zero) and
// composition of nested logical left shifts.
func (a *Arena) Shl(x xid, amt uint) xid {
	if amt == 0 {
		return x
	}
	if amt >= 32 {
		return a.Const(0)
	}
	if c, ok := a.isConst(x); ok {
		return a.Const(bits.Shl(c, amt))
	}
	if n := &a.nodes[x]; n.op == opShl {
		return a.Shl(n.args[0], amt+uint(n.aux))
	}
	return a.intern(node{op: opShl, aux: uint32(amt), args: []xid{x}})
}

// Shr is the logical right-shift dual of Shl.
func (a *Arena) Shr(x xid, amt uint) xid {
	if amt == 0 {
		return x
	}
	if amt >= 32 {
		return a.Const(0)
	}
	if c, ok := a.isConst(x); ok {
		return a.Const(bits.Shr(c, amt))
	}
	if n := &a.nodes[x]; n.op == opShr {
		return a.Shr(n.args[0], amt+uint(n.aux))
	}
	return a.intern(node{op: opShr, aux: uint32(amt), args: []xid{x}})
}

// Rotl builds a left rotation by amt mod 32, composing nested rotations
// ((x <<< a) <<< b = x <<< (a+b mod 32)) and eliding zero rotations.
func (a *Arena) Rotl(x xid, amt uint) xid {
	amt &= 31
	if amt == 0 {
		return x
	}
	if c, ok := a.isConst(x); ok {
		return a.Const(bits.RotL(c, amt))
	}
	if n := &a.nodes[x]; n.op == opRotl {
		return a.Rotl(n.args[0], amt+uint(n.aux))
	}
	return a.intern(node{op: opRotl, aux: uint32(amt), args: []xid{x}})
}

// shiftVar builds a data-dependent shift: the low five bits of amt select
// the distance, negated mod 32 when neg (the E element's Neg stage). A
// constant amount reduces to the immediate form.
func (a *Arena) shiftVar(op opKind, x, amt xid, neg bool) xid {
	if c, ok := a.isConst(amt); ok {
		dist := uint(c & 31)
		if neg {
			dist = (32 - dist) & 31
		}
		switch op {
		case opShlVar:
			return a.Shl(x, dist)
		case opShrVar:
			return a.Shr(x, dist)
		default:
			return a.Rotl(x, dist)
		}
	}
	aux := uint32(0)
	if neg {
		aux = 1
	}
	return a.intern(node{op: op, aux: aux, args: []xid{x, amt}})
}

// ShlVar builds x << (amt&31), optionally with the negated amount.
func (a *Arena) ShlVar(x, amt xid, neg bool) xid { return a.shiftVar(opShlVar, x, amt, neg) }

// ShrVar builds x >> (amt&31), optionally with the negated amount.
func (a *Arena) ShrVar(x, amt xid, neg bool) xid { return a.shiftVar(opShrVar, x, amt, neg) }

// RotlVar builds x <<< (amt&31), optionally with the negated amount.
func (a *Arena) RotlVar(x, amt xid, neg bool) xid { return a.shiftVar(opRotlVar, x, amt, neg) }

// --- table lookups -----------------------------------------------------------

func evalS8(t *[4][256]uint8, x uint32) uint32 {
	return uint32(t[0][uint8(x)]) |
		uint32(t[1][uint8(x>>8)])<<8 |
		uint32(t[2][uint8(x>>16)])<<16 |
		uint32(t[3][uint8(x>>24)])<<24
}

func evalS4(t *[4][128]uint8, page uint32, x uint32) uint32 {
	base := page * 16
	var out uint32
	for lane := 0; lane < 8; lane++ {
		n := x >> (4 * uint(lane)) & 0xf
		out |= uint32(t[lane/2][base+n]&0xf) << (4 * uint(lane))
	}
	return out
}

func evalS8to32(t *[4][256]uint8, sel uint32, x uint32) uint32 {
	b := uint8(x >> (8 * uint(sel)))
	return uint32(t[0][b]) | uint32(t[1][b])<<8 | uint32(t[2][b])<<16 | uint32(t[3][b])<<24
}

// S8 builds the 4-lane 8→8 substitution through the interned table set.
func (a *Arena) S8(x xid, tab uint32) xid {
	if c, ok := a.isConst(x); ok {
		return a.Const(evalS8(a.s8Tabs[tab], c))
	}
	return a.intern(node{op: opS8, aux: tab, args: []xid{x}})
}

// S4 builds the 8-nibble-lane 4→4 substitution on one page.
func (a *Arena) S4(x xid, tab, page uint32) xid {
	if c, ok := a.isConst(x); ok {
		return a.Const(evalS4(a.s4Tabs[tab], page&7, c))
	}
	return a.intern(node{op: opS4, aux: tab<<3 | page&7, args: []xid{x}})
}

// S8to32 builds the 8→32 substitution: one selected input byte through all
// four 8→8 banks in parallel.
func (a *Arena) S8to32(x xid, tab, sel uint32) xid {
	if c, ok := a.isConst(x); ok {
		return a.Const(evalS8to32(a.s8Tabs[tab], sel&3, c))
	}
	return a.intern(node{op: opS8to32, aux: tab<<2 | sel&3, args: []xid{x}})
}

// GF modes mirror isa.FMode's non-bypass values.
const (
	gfLanes uint32 = 1
	gfMDS   uint32 = 2
)

func packGFConsts(c [4]uint8) uint32 {
	return uint32(c[0]) | uint32(c[1])<<8 | uint32(c[2])<<16 | uint32(c[3])<<24
}

func unpackGFConsts(v uint32) [4]uint8 {
	return [4]uint8{uint8(v), uint8(v >> 8), uint8(v >> 16), uint8(v >> 24)}
}

func evalGF(mode uint32, consts [4]uint8, x uint32) uint32 {
	if mode == gfLanes {
		return bits.GFMulWord(x, consts)
	}
	return bits.GFMDSColumn(x, consts)
}

// GF builds the F element's fixed-field-constant multiply from its defining
// GF(2^8) expression. A degenerate MDS circulant (c,0,0,0) is the same
// function as lane-wise multiplication by (c,c,c,c), so it canonicalizes to
// lane mode; the identity configuration then elides the node entirely.
func (a *Arena) GF(x xid, mode uint32, consts [4]uint8) xid {
	if mode == gfMDS && consts[1] == 0 && consts[2] == 0 && consts[3] == 0 {
		mode = gfLanes
		consts = [4]uint8{consts[0], consts[0], consts[0], consts[0]}
	}
	if mode == gfLanes && consts == [4]uint8{1, 1, 1, 1} {
		return x
	}
	if c, ok := a.isConst(x); ok {
		return a.Const(evalGF(mode, consts, c))
	}
	return a.intern(node{op: opGF, aux: mode, val: packGFConsts(consts), args: []xid{x}})
}

// GFRaw builds an F-element lookup through a verbatim compiled table — the
// fallback for tables that fail GF re-expansion (a corrupted-table defect).
// A GFRaw node can never equal a GF node, so any live use is reported as a
// mismatch, with the witness evaluated through the corrupted table exactly
// as the fastpath executor would.
func (a *Arena) GFRaw(x xid, tab uint32) xid {
	if c, ok := a.isConst(x); ok {
		t := a.gfTabs[tab]
		return a.Const(t[0][c&0xff] ^ t[1][c>>8&0xff] ^ t[2][c>>16&0xff] ^ t[3][c>>24])
	}
	return a.intern(node{op: opGFRaw, aux: tab, args: []xid{x}})
}

// --- byte extraction / packing (shufflers) -----------------------------------

// Byte builds (x >> 8i) & 0xff. Extracting from a packed word selects the
// packed byte directly, so shuffler chains compose without growth.
func (a *Arena) Byte(x xid, i int) xid {
	i &= 3
	if c, ok := a.isConst(x); ok {
		return a.Const(c >> (8 * uint(i)) & 0xff)
	}
	if n := &a.nodes[x]; n.op == opPack4 {
		return n.args[i]
	}
	return a.intern(node{op: opByte, aux: uint32(i), args: []xid{x}})
}

// Pack4 assembles a word from four byte values (each masked to its low
// byte). Re-packing the four bytes of one word in order yields that word,
// so identity shuffles vanish.
func (a *Arena) Pack4(b [4]xid) xid {
	if c0, ok := a.isConst(b[0]); ok {
		if c1, ok := a.isConst(b[1]); ok {
			if c2, ok := a.isConst(b[2]); ok {
				if c3, ok := a.isConst(b[3]); ok {
					return a.Const(c0&0xff | c1&0xff<<8 | c2&0xff<<16 | c3&0xff<<24)
				}
			}
		}
	}
	if n0 := &a.nodes[b[0]]; n0.op == opByte && n0.aux == 0 {
		base := n0.args[0]
		same := true
		for i := 1; i < 4; i++ {
			n := &a.nodes[b[i]]
			if n.op != opByte || n.aux != uint32(i) || n.args[0] != base {
				same = false
				break
			}
		}
		if same {
			return base
		}
	}
	return a.intern(node{op: opPack4, args: []xid{b[0], b[1], b[2], b[3]}})
}

// --- concrete evaluation (witness search) ------------------------------------

// evaluator computes concrete values of arena expressions under one input
// assignment, memoized per node with epoch stamping so repeated assignments
// reuse the buffers.
type evaluator struct {
	a     *Arena
	env   []bits.Block128 // env[blk][col] = input word
	val   []uint32
	stamp []uint32
	epoch uint32
}

func newEvaluator(a *Arena) *evaluator {
	return &evaluator{a: a, val: make([]uint32, len(a.nodes)), stamp: make([]uint32, len(a.nodes))}
}

// reset installs a new input assignment.
func (ev *evaluator) reset(env []bits.Block128) {
	ev.env = env
	ev.epoch++
	if len(ev.val) < len(ev.a.nodes) {
		ev.val = make([]uint32, len(ev.a.nodes))
		ev.stamp = make([]uint32, len(ev.a.nodes))
		ev.epoch = 1
	}
}

func (ev *evaluator) eval(id xid) uint32 {
	if ev.stamp[id] == ev.epoch {
		return ev.val[id]
	}
	n := &ev.a.nodes[id]
	var v uint32
	switch n.op {
	case opConst:
		v = n.val
	case opInput:
		blk, col := int(n.aux>>2), int(n.aux&3)
		if blk < len(ev.env) {
			v = ev.env[blk][col]
		}
	case opVar:
		// Witness evaluation only ever sees var-free expressions (Validate
		// substitutes the actual boundary state first); an unexpected var
		// evaluates as zero rather than faulting.
		v = 0
	case opXor:
		v = n.val
		for _, arg := range n.args {
			v ^= ev.eval(arg)
		}
	case opAnd:
		v = n.val
		for _, arg := range n.args {
			v &= ev.eval(arg)
		}
	case opOr:
		v = n.val
		for _, arg := range n.args {
			v |= ev.eval(arg)
		}
	case opAdd:
		v = n.val
		for _, arg := range n.args {
			v = bits.AddMod(v, ev.eval(arg), bits.Width(n.aux))
		}
	case opMul:
		v = n.val
		for _, arg := range n.args {
			v = bits.MulMod(v, ev.eval(arg), bits.Width(n.aux))
		}
	case opSub:
		v = bits.SubMod(ev.eval(n.args[0]), ev.eval(n.args[1]), bits.Width(n.aux))
	case opSquare:
		v = bits.SquareMod32(ev.eval(n.args[0]))
	case opShl:
		v = bits.Shl(ev.eval(n.args[0]), uint(n.aux))
	case opShr:
		v = bits.Shr(ev.eval(n.args[0]), uint(n.aux))
	case opRotl:
		v = bits.RotL(ev.eval(n.args[0]), uint(n.aux))
	case opShlVar:
		v = bits.Shl(ev.eval(n.args[0]), ev.varAmt(n))
	case opShrVar:
		v = bits.Shr(ev.eval(n.args[0]), ev.varAmt(n))
	case opRotlVar:
		v = bits.RotL(ev.eval(n.args[0]), ev.varAmt(n))
	case opS8:
		v = evalS8(ev.a.s8Tabs[n.aux], ev.eval(n.args[0]))
	case opS4:
		v = evalS4(ev.a.s4Tabs[n.aux>>3], n.aux&7, ev.eval(n.args[0]))
	case opS8to32:
		v = evalS8to32(ev.a.s8Tabs[n.aux>>2], n.aux&3, ev.eval(n.args[0]))
	case opGF:
		v = evalGF(n.aux, unpackGFConsts(n.val), ev.eval(n.args[0]))
	case opGFRaw:
		t := ev.a.gfTabs[n.aux]
		x := ev.eval(n.args[0])
		v = t[0][x&0xff] ^ t[1][x>>8&0xff] ^ t[2][x>>16&0xff] ^ t[3][x>>24]
	case opByte:
		v = ev.eval(n.args[0]) >> (8 * uint(n.aux)) & 0xff
	case opPack4:
		v = ev.eval(n.args[0])&0xff |
			ev.eval(n.args[1])&0xff<<8 |
			ev.eval(n.args[2])&0xff<<16 |
			ev.eval(n.args[3])&0xff<<24
	}
	ev.val[id] = v
	ev.stamp[id] = ev.epoch
	return v
}

func (ev *evaluator) varAmt(n *node) uint {
	amt := uint(ev.eval(n.args[1]) & 31)
	if n.aux == 1 {
		amt = (32 - amt) & 31
	}
	return amt
}

// --- generalized-state substitution ------------------------------------------

// subst rebuilds an expression with every Var node replaced per vars,
// renormalizing through the public constructors (a substituted expression
// is canonical again, so two sides that agree after substitution intern to
// the same id). Vars absent from the map are kept.
func (a *Arena) subst(id xid, vars map[uint32]xid, memo map[xid]xid) xid {
	if r, ok := memo[id]; ok {
		return r
	}
	n := a.nodes[id] // by value: constructors below may grow a.nodes
	arg := func(i int) xid { return a.subst(n.args[i], vars, memo) }
	var r xid
	switch n.op {
	case opConst, opInput:
		r = id
	case opVar:
		if v, ok := vars[n.aux]; ok {
			r = v
		} else {
			r = id
		}
	case opXor:
		r = a.Const(n.val)
		for i := range n.args {
			r = a.Xor(r, arg(i))
		}
	case opAnd:
		r = a.Const(n.val)
		for i := range n.args {
			r = a.And(r, arg(i))
		}
	case opOr:
		r = a.Const(n.val)
		for i := range n.args {
			r = a.Or(r, arg(i))
		}
	case opAdd:
		r = a.Const(n.val)
		for i := range n.args {
			r = a.Add(r, arg(i), bits.Width(n.aux))
		}
	case opMul:
		r = a.Const(n.val)
		for i := range n.args {
			r = a.Mul(r, arg(i), bits.Width(n.aux))
		}
	case opSub:
		r = a.Sub(arg(0), arg(1), bits.Width(n.aux))
	case opSquare:
		r = a.Square(arg(0))
	case opShl:
		r = a.Shl(arg(0), uint(n.aux))
	case opShr:
		r = a.Shr(arg(0), uint(n.aux))
	case opRotl:
		r = a.Rotl(arg(0), uint(n.aux))
	case opShlVar:
		r = a.ShlVar(arg(0), arg(1), n.aux != 0)
	case opShrVar:
		r = a.ShrVar(arg(0), arg(1), n.aux != 0)
	case opRotlVar:
		r = a.RotlVar(arg(0), arg(1), n.aux != 0)
	case opS8:
		r = a.S8(arg(0), n.aux)
	case opS4:
		r = a.S4(arg(0), n.aux>>3, n.aux&7)
	case opS8to32:
		r = a.S8to32(arg(0), n.aux>>2, n.aux&3)
	case opGF:
		r = a.GF(arg(0), n.aux, unpackGFConsts(n.val))
	case opGFRaw:
		r = a.GFRaw(arg(0), n.aux)
	case opByte:
		r = a.Byte(arg(0), int(n.aux))
	case opPack4:
		r = a.Pack4([4]xid{arg(0), arg(1), arg(2), arg(3)})
	}
	memo[id] = r
	return r
}

// --- rendering ---------------------------------------------------------------

// maxRenderDepth caps expression rendering in reports; beyond it subtrees
// render as an ellipsis with the node count.
const maxRenderDepth = 5

// String renders an expression for mismatch reports, depth-capped.
func (a *Arena) String(id xid) string {
	var sb strings.Builder
	a.render(&sb, id, maxRenderDepth)
	return sb.String()
}

func (a *Arena) render(sb *strings.Builder, id xid, depth int) {
	n := &a.nodes[id]
	if depth <= 0 && len(n.args) > 0 {
		fmt.Fprintf(sb, "…#%d", id)
		return
	}
	list := func(name string, constVal uint32, showConst bool) {
		sb.WriteString(name)
		sb.WriteByte('(')
		first := true
		if showConst {
			fmt.Fprintf(sb, "%#x", constVal)
			first = false
		}
		for _, arg := range n.args {
			if !first {
				sb.WriteString(", ")
			}
			first = false
			a.render(sb, arg, depth-1)
		}
		sb.WriteByte(')')
	}
	switch n.op {
	case opConst:
		fmt.Fprintf(sb, "%#x", n.val)
	case opInput:
		fmt.Fprintf(sb, "in[%d].%d", n.aux>>2, n.aux&3)
	case opVar:
		fmt.Fprintf(sb, "v%d", n.aux)
	case opXor:
		list("xor", n.val, n.val != 0)
	case opAnd:
		list("and", n.val, n.val != ^uint32(0))
	case opOr:
		list("or", n.val, n.val != 0)
	case opAdd:
		list(fmt.Sprintf("add%d", widthBits(n.aux)), n.val, n.val != 0)
	case opMul:
		list(fmt.Sprintf("mul%d", widthBits(n.aux)), n.val, n.val != mulIdent(bits.Width(n.aux)))
	case opSub:
		list(fmt.Sprintf("sub%d", widthBits(n.aux)), 0, false)
	case opSquare:
		list("sqr32", 0, false)
	case opShl:
		a.renderShift(sb, "shl", n, depth)
	case opShr:
		a.renderShift(sb, "shr", n, depth)
	case opRotl:
		a.renderShift(sb, "rotl", n, depth)
	case opShlVar:
		a.renderVarShift(sb, "shl", n, depth)
	case opShrVar:
		a.renderVarShift(sb, "shr", n, depth)
	case opRotlVar:
		a.renderVarShift(sb, "rotl", n, depth)
	case opS8:
		list(fmt.Sprintf("s8[t%d]", n.aux), 0, false)
	case opS4:
		list(fmt.Sprintf("s4[t%d.p%d]", n.aux>>3, n.aux&7), 0, false)
	case opS8to32:
		list(fmt.Sprintf("s8to32[t%d.b%d]", n.aux>>2, n.aux&3), 0, false)
	case opGF:
		c := unpackGFConsts(n.val)
		mode := "lanes"
		if n.aux == gfMDS {
			mode = "mds"
		}
		list(fmt.Sprintf("gf.%s[%02x,%02x,%02x,%02x]", mode, c[0], c[1], c[2], c[3]), 0, false)
	case opGFRaw:
		list(fmt.Sprintf("gfraw[t%d]", n.aux), 0, false)
	case opByte:
		list(fmt.Sprintf("byte%d", n.aux), 0, false)
	case opPack4:
		list("pack4", 0, false)
	}
}

func (a *Arena) renderShift(sb *strings.Builder, name string, n *node, depth int) {
	sb.WriteString(name)
	sb.WriteByte('(')
	a.render(sb, n.args[0], depth-1)
	fmt.Fprintf(sb, ", %d)", n.aux)
}

func (a *Arena) renderVarShift(sb *strings.Builder, name string, n *node, depth int) {
	sb.WriteString(name)
	sb.WriteString("v(")
	a.render(sb, n.args[0], depth-1)
	sb.WriteString(", ")
	a.render(sb, n.args[1], depth-1)
	if n.aux == 1 {
		sb.WriteString(", neg")
	}
	sb.WriteByte(')')
}

func widthBits(aux uint32) int {
	switch bits.Width(aux) {
	case bits.W8:
		return 8
	case bits.W16:
		return 16
	default:
		return 32
	}
}
