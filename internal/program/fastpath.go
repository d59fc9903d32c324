package program

import (
	"fmt"

	"cobra/internal/fastpath"
	"cobra/internal/sim"
	"cobra/internal/vet"
)

// Compile trace-compiles the program into a fastpath executor: one
// steady-state window is recorded on a scratch cycle-accurate machine,
// proven periodic, and flattened into a per-cycle op-list (see package
// fastpath). Programs whose bulk phase cannot be proven steady-state —
// key-request handshakes, eRAM/LUT writes during encryption, aperiodic
// output cadence, or any Error-severity cobravet finding — return an error
// wrapping fastpath.ErrNotSteady; callers keep using the interpreter.
func (p *Program) Compile() (*fastpath.Exec, error) { return p.CompileFrom(nil) }

// CompileFrom is Compile with the trace recorder starting from rec, the
// program's own recording (Record), rather than running the setup phase
// again on its scratch machine. A nil rec runs the phase.
func (p *Program) CompileFrom(rec *sim.Recording) (*fastpath.Exec, error) {
	if p.NeedsKey {
		return nil, fmt.Errorf("%w: %s: key-request handshake programs need the external system",
			fastpath.ErrNotSteady, p.Name)
	}
	for _, f := range p.Vet() {
		if f.Sev == vet.Error {
			return nil, fmt.Errorf("%w: %s: vet: %s", fastpath.ErrNotSteady, p.Name, f)
		}
	}
	return fastpath.Compile(fastpath.Source{
		Name:          p.Name,
		Words:         p.Words(),
		Setup:         rec,
		Geometry:      p.Geometry,
		Window:        p.Window,
		Streaming:     p.Streaming,
		PipelineDepth: p.PipelineDepth,
	})
}
