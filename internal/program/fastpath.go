package program

import (
	"fmt"

	"cobra/internal/fastpath"
	"cobra/internal/vet"
)

// Compile trace-compiles the program into a fastpath executor: one
// steady-state window is recorded on a scratch cycle-accurate machine,
// proven periodic, and flattened into a per-cycle op-list (see package
// fastpath). Programs whose bulk phase cannot be proven steady-state —
// key-request handshakes, eRAM/LUT writes during encryption, aperiodic
// output cadence, or any Error-severity cobravet finding — return an error
// wrapping fastpath.ErrNotSteady; callers keep using the interpreter.
func (p *Program) Compile() (*fastpath.Exec, error) {
	if p.NeedsKey {
		return nil, fmt.Errorf("%w: %s: key-request handshake programs need the external system",
			fastpath.ErrNotSteady, p.Name)
	}
	for _, f := range p.Vet() {
		if f.Sev == vet.Error {
			return nil, fmt.Errorf("%w: %s: vet: %s", fastpath.ErrNotSteady, p.Name, f)
		}
	}
	src := fastpath.Source{
		Name:          p.Name,
		Words:         p.Words(),
		Geometry:      p.Geometry,
		Window:        p.Window,
		Streaming:     p.Streaming,
		PipelineDepth: p.PipelineDepth,
	}
	// Dead-op elision: when the dataflow walk closes with no Error findings,
	// its dead-element mask lets the compiler skip operations whose values
	// provably never reach the ciphertext. The mask is advisory — the
	// compile-time self-check replay still verifies the trace bit-for-bit.
	if res := p.Analyze(); res.Complete && !res.HasErrors() {
		src.DeadElems = res.DeadMask(p.Geometry.Rows)
	}
	return fastpath.Compile(src)
}
