// Package sca is the static side-channel analyzer (cobra-ct): it verifies,
// per program, where key and plaintext taint flows on the way to the
// ciphertext — not just that it arrives (package dataflow's job).
//
// The paper's array puts every classical software side channel in a
// nameable place: LUT banks are the S-box memories whose read addresses a
// cache observer sees, eRAM read ports and the playback counter are the
// only other memory addresses, and the iRAM sequencer is the only control
// path. The analyzer attaches a dataflow.Tap to the abstract taint walk
// and classifies the taint reaching each of those lanes:
//
//   - secret-branch (Error): key- or plaintext-derived data feeds an iRAM
//     branch decision (OpJmp target) or handshake gate (OpCtlFlag). The
//     base ISA cannot express this — OpJmp is unconditional, flag words
//     are immediates — so any occurrence means a rewired lane; the finding
//     exists so the property is verified, not assumed.
//   - secret-eram-addr (Error): key- or plaintext-derived data feeds an
//     eRAM address lane (an INER read port, the playback counter, or a
//     capture port). Same data-independence argument as above.
//   - secret-lut-index (Warn): a C-element LUT read, or an F element whose
//     GF logic a compiled fastpath realizes as table reads, is indexed by
//     key- or plaintext-derived data. This is the T-table class: inherent
//     to AES/Blowfish/DES-style S-box ciphers and reported with element
//     coordinates so deployments can weigh it; ciphers built from
//     add/rotate/xor (TEA, SIMON, RC5, RC6) prove a fully constant-time
//     profile instead.
//   - ct-unproven (Error): the abstract walk did not close (or collected
//     no output), so no total claim about the schedule can be made.
//   - ct-profile-mismatch (Error): the microcode profile and the compiled
//     fastpath trace's profile disagree — a table read present on one side
//     only, an index taint that differs, or an output word whose taint
//     changed. This is the differential check that the thing actually
//     executed (the op list) leaks exactly where the microcode says.
//
// AnalyzeMicrocode profiles the microcode through the dataflow engine;
// AnalyzeTrace walks the compiled fastpath IR (fastpath.Trace) over the
// same {key, plaintext} lattice; Compare runs the differential; and
// BuildReport bundles the three for Program.CheckConstantTime and
// cobra-vet -ct.
package sca

import (
	"fmt"
	"sort"
	"strings"

	"cobra/internal/asm"
	"cobra/internal/dataflow"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/vet"
)

// Taint is the key/plaintext dependency lattice shared with the dataflow
// engine's export surface.
type Taint = dataflow.Taint

// Access is one table-read site: an element instance whose evaluation
// reads a memory by data-derived address. C elements read their LUT banks;
// F elements are included because the compiled fastpath realizes their GF
// multiplies as table reads (and the hardware LUT realization is a memory
// too) — keeping F in both profiles is what makes the microcode/fastpath
// differential exact.
type Access struct {
	Row, Col int
	Elem     isa.Elem // ElemC: LUT banks; ElemF: GF contribution tables
	// Taint is the join of the index value's taint over every observed
	// evaluation of the site.
	Taint Taint
	// FirstTick is the first advancing datapath cycle the site was
	// observed at (microcode: cycles from power-up; fastpath: tick index
	// into head then period).
	FirstTick int
	// Count is the number of observed evaluations; walk lengths differ
	// between the two sides, so Compare ignores it.
	Count int
	// CfgAddr is the iRAM address of the element's configuration word
	// (microcode profiles; -1 in fastpath profiles, where the fold erased
	// addresses).
	CfgAddr int
}

// String renders the site for messages: "r1.c2 C".
func (a Access) String() string {
	return fmt.Sprintf("r%d.c%d %s", a.Row, a.Col, a.Elem)
}

func accessKey(row, col int, elem isa.Elem) [3]int {
	return [3]int{row, col, int(elem)}
}

// Profile is one side's side-channel profile: every table-access site with
// its joined index taint, plus the per-column output taint.
type Profile struct {
	Name   string
	Source string // "microcode" or "fastpath"
	// Complete reports the underlying walk closed with outputs observed,
	// so the profile covers the whole schedule and its claims are total.
	Complete bool
	Outputs  int
	Accesses []Access
	OutTaint [datapath.Cols]Taint
	Findings []vet.Finding
}

// ConstantTime reports a proven fully constant-time profile: the walk
// closed, no table access is indexed by secret-derived data, and no
// Error-severity finding (secret control/address lanes, unproven walk)
// exists.
func (p *Profile) ConstantTime() bool {
	if p == nil || !p.Complete {
		return false
	}
	for _, a := range p.Accesses {
		if a.Taint.Tainted() {
			return false
		}
	}
	for _, f := range p.Findings {
		if f.Sev == vet.Error {
			return false
		}
	}
	return true
}

// TaintedSites counts the secret-indexed table sites by element class.
func (p *Profile) TaintedSites() (lut, gf int) {
	if p == nil {
		return 0, 0
	}
	for _, a := range p.Accesses {
		if !a.Taint.Tainted() {
			continue
		}
		if a.Elem == isa.ElemF {
			gf++
		} else {
			lut++
		}
	}
	return lut, gf
}

// Report is the full constant-time verdict for one program: the microcode
// profile, the compiled fastpath profile (or why there is none), and the
// merged findings including the differential check's.
type Report struct {
	Name      string
	Microcode *Profile
	// Fastpath is nil when the program has no compiled trace; FastpathSkip
	// then holds the compile refusal (key-request handshakes and friends —
	// a documented skip, not a failure).
	Fastpath     *Profile
	FastpathSkip string
	// Findings merges the microcode profile's findings with the
	// differential's, sorted by address.
	Findings []vet.Finding

	compareErrs int
}

// BuildReport assembles the verdict: microcode findings, then (when a
// trace exists) the microcode/fastpath differential.
func BuildReport(name string, mc, fp *Profile, fpSkip string) *Report {
	r := &Report{Name: name, Microcode: mc, Fastpath: fp, FastpathSkip: fpSkip}
	r.Findings = append(r.Findings, mc.Findings...)
	if fp != nil {
		r.Findings = append(r.Findings, fp.Findings...)
		cmp := Compare(mc, fp)
		r.compareErrs = len(cmp)
		r.Findings = append(r.Findings, cmp...)
	}
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
	return r
}

// HasErrors reports any Error-severity finding (Warn-level T-table
// profiles are clean verdicts).
func (r *Report) HasErrors() bool {
	for _, f := range r.Findings {
		if f.Sev == vet.Error {
			return true
		}
	}
	return false
}

func (r *Report) errorCount() int {
	n := 0
	for _, f := range r.Findings {
		if f.Sev == vet.Error {
			n++
		}
	}
	return n
}

// ConstantTime reports the program proven fully constant-time: no secret-
// indexed access, data-independent control, and (when compiled) a fastpath
// that agrees.
func (r *Report) ConstantTime() bool {
	return !r.HasErrors() && r.Microcode.ConstantTime()
}

// Summary renders the one-line verdict cobra-vet prints after "ct:".
func (r *Report) Summary() string {
	var b strings.Builder
	switch {
	case r.errorCount() > 0:
		fmt.Fprintf(&b, "NOT proven (%d error findings)", r.errorCount())
	case r.Microcode.ConstantTime():
		b.WriteString("constant-time profile proven")
	default:
		lut, gf := r.Microcode.TaintedSites()
		fmt.Fprintf(&b, "t-table class (%d secret-indexed sites: %d lut, %d gf)", lut+gf, lut, gf)
	}
	switch {
	case r.Fastpath == nil && r.FastpathSkip != "":
		fmt.Fprintf(&b, "; fastpath skipped: %s", r.FastpathSkip)
	case r.Fastpath != nil && r.compareErrs == 0:
		b.WriteString("; fastpath agrees")
	case r.Fastpath != nil:
		fmt.Fprintf(&b, "; fastpath DISAGREES (%d mismatches)", r.compareErrs)
	}
	return b.String()
}

// finding builds a diagnostic with its disassembled source line.
func finding(prog []isa.Instr, addr int, sev vet.Severity, code, msg string) vet.Finding {
	var line string
	if addr >= 0 && addr < len(prog) {
		line = asm.Line(prog[addr])
	}
	return vet.Finding{Addr: addr, Sev: sev, Code: code, Msg: msg, Line: line}
}

// sortedAccesses flattens an access map into row/col/elem order.
func sortedAccesses(acc map[[3]int]*Access) []Access {
	out := make([]Access, 0, len(acc))
	for _, a := range acc {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Elem < b.Elem
	})
	return out
}
