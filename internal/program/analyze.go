package program

import (
	"cobra/internal/dataflow"
)

// Analyze runs the word-level def-use/liveness/taint analysis and static
// timing of package dataflow over the program's microcode. Every builder in
// this package analyzes clean (regression-tested at every unroll depth and
// window size); an Error finding on a hand-written or edited program points
// at broken key injection, missing diffusion, or a read of storage nothing
// wrote.
func (p *Program) Analyze() *dataflow.Result {
	return dataflow.Analyze(p.Instrs, dataflow.Config{Rows: p.Geometry.Rows, Window: p.Window})
}
