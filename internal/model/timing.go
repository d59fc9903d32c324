// Package model provides the timing and area models of the COBRA
// evaluation (§4.1–4.2): a static timing analyzer that derives the maximum
// datapath clock frequency from the configured element chains (standing in
// for the paper's Synopsys timing analysis of the 0.35 µm netlist), a gate
// count model reproducing Tables 4 and 5, and the cycle-gates product of
// Table 6.
package model

import (
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/rce"
)

// Delays are per-element combinational delays in nanoseconds. The defaults
// are calibrated so that the three §4.1 cipher configurations reproduce the
// paper's reported datapath frequencies (60.975, 102.041 and 54.054 MHz)
// to within a few percent — see EXPERIMENTS.md for paper-vs-model values —
// while keeping physically sensible ratios (the 32×32 multiplier dominates,
// LUT reads cost roughly an adder plus decode, Boolean gates are cheap).
type Delays struct {
	E         float64 // barrel shifter / rotator
	A         float64 // Boolean unit
	APreShift float64 // extra for the A2 operand pre-shifter
	B         float64 // adder/subtractor
	C8        float64 // 256×8 LUT read (8→8 and 8→32 modes)
	C4        float64 // 128×4 LUT read with page decode
	D         float64 // 32×32 multiplier (mod 2^16/2^32, square)
	FLanes    float64 // GF(2^8) per-lane constant multiplier
	FMDS      float64 // GF(2^8) circulant matrix mode
	RowMux    float64 // per-row operand/bypass multiplexing overhead
	Shuffler  float64 // byte shuffler crossing
	Reg       float64 // register setup + clock-to-Q
	InputPath float64 // feedback/input multiplexor + input whitening
	Whiten    float64 // output whitening stage
}

// DefaultDelays is the calibrated 0.35 µm delay set.
func DefaultDelays() Delays {
	return Delays{
		E:         1.20,
		A:         1.00,
		APreShift: 0.60,
		B:         2.00,
		C8:        2.90,
		C4:        2.90,
		D:         5.50,
		FLanes:    2.20,
		FMDS:      2.60,
		RowMux:    0.70,
		Shuffler:  0.60,
		Reg:       0.40,
		InputPath: 0.50,
		Whiten:    0.90,
	}
}

// rceDelay sums the active elements of one RCE's chain plus the row
// overhead, which INSEL shares.
func (d Delays) rceDelay(ch *rce.Chain) float64 {
	t := d.RowMux
	for _, s := range ch.Steps() {
		switch s.Op {
		case rce.OpShl, rce.OpShr, rce.OpRotl:
			t += d.E
		case rce.OpXor, rce.OpAnd, rce.OpOr:
			t += d.A
			if s.Elem == isa.ElemA2 && s.Shift != 0 {
				t += d.APreShift
			}
		case rce.OpAdd, rce.OpSub:
			t += d.B
		case rce.OpS4:
			t += d.C4
		case rce.OpS8, rce.OpS8to32:
			t += d.C8
		case rce.OpMul, rce.OpSquare:
			t += d.D
		case rce.OpGFMDS:
			t += d.FMDS
		case rce.OpGFLanes:
			t += d.FLanes
		}
	}
	return t
}

// Timing is the result of static timing analysis of a configured array.
type Timing struct {
	// CriticalPathNs is the longest register-to-register path.
	CriticalPathNs float64
	// DatapathMHz is the maximum datapath clock frequency.
	DatapathMHz float64
	// IRAMMHz is the iRAM clock: twice the datapath frequency (§3.4),
	// since loading and executing one instruction takes two iRAM cycles.
	IRAMMHz float64
	// Segments lists each pipeline segment's path in row order.
	Segments []float64
}

// Analyze performs static timing analysis on a configured array: rows are
// walked top to bottom accumulating combinational delay, with the arrival
// time at each row taken as the worst arrival across columns — every RCE
// receives the full 128-bit stream, so any column's output can feed any
// column of the next row. Rows whose RCEs have their output registers
// enabled cut the path (the round-atomic pipelining of §4.1). The first
// segment carries the input-path delay and the last the whitening stage,
// matching the paper's worst-case analysis across operating functions.
func Analyze(a *datapath.Array, d Delays) Timing {
	rows := a.Geometry().Rows
	var segments []float64
	arrival := d.InputPath
	for r := 0; r < rows; r++ {
		if r%2 == 1 {
			arrival += d.Shuffler
		}
		regRow := false
		worst := 0.0
		for c := 0; c < datapath.Cols; c++ {
			el := a.RCE(r, c)
			if dl := d.rceDelay(el.Chain()); dl > worst {
				worst = dl
			}
			if el.Cfg.Reg.Enabled {
				regRow = true
			}
		}
		arrival += worst
		if regRow {
			segments = append(segments, arrival+d.Reg)
			arrival = 0
		}
	}
	// Final combinational segment through whitening back to the feedback
	// multiplexor / output bus.
	segments = append(segments, arrival+d.Whiten+d.Reg)

	crit := 0.0
	for _, s := range segments {
		if s > crit {
			crit = s
		}
	}
	mhz := 1000.0 / crit
	return Timing{
		CriticalPathNs: crit,
		DatapathMHz:    mhz,
		IRAMMHz:        2 * mhz,
		Segments:       segments,
	}
}

// ThroughputMbps converts a cycles-per-block measurement at the analyzed
// frequency into the Table 3 throughput metric (128-bit blocks).
func (t Timing) ThroughputMbps(cyclesPerBlock float64) float64 {
	if cyclesPerBlock <= 0 {
		return 0
	}
	return t.DatapathMHz * 128 / cyclesPerBlock
}
