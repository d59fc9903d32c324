// Package iram models the COBRA instruction RAM and its sequencer state
// (§3.3–3.4): a 12-bit × 80-bit memory supporting programs of up to 4096
// instructions, a program counter, and the flag register through which the
// microcode talks to the external system (ready/busy/data-valid/key-request
// and generic flags).
//
// The iRAM operates independently from the datapath; the machine in package
// sim drives one instruction fetch per two iRAM clock cycles and one
// datapath cycle per instruction window, implementing the paper's
// dual-clocking scheme.
package iram

import (
	"fmt"

	"cobra/internal/isa"
)

// Sequencer is the instruction RAM plus fetch state.
type Sequencer struct {
	prog  []isa.Instr
	pc    int
	flags uint16
}

// Load validates and installs a packed microcode image. Loading resets the
// program counter and flags (power-up state; §3.4: the architecture idles
// until the external system indicates that the iRAM has been loaded).
func (s *Sequencer) Load(words []isa.Word) error {
	if len(words) == 0 {
		return fmt.Errorf("iram: empty program")
	}
	if len(words) > isa.IRAMWords {
		return fmt.Errorf("iram: program of %d instructions exceeds iRAM capacity %d",
			len(words), isa.IRAMWords)
	}
	prog := make([]isa.Instr, len(words))
	for i, w := range words {
		in, err := isa.Unpack(w)
		if err != nil {
			return fmt.Errorf("iram: address %#x: %w", i, err)
		}
		prog[i] = in
	}
	for i, in := range prog {
		if in.Op != isa.OpJmp {
			continue
		}
		if t := int(in.Data & 0xfff); t >= len(prog) {
			return fmt.Errorf("iram: address %#x: jump target %#x outside program of %d instructions",
				i, t, len(prog))
		}
	}
	s.prog = prog
	s.Reset()
	return nil
}

// LoadInstrs installs an already-decoded program (test and tooling path).
func (s *Sequencer) LoadInstrs(prog []isa.Instr) error {
	words := make([]isa.Word, len(prog))
	for i, in := range prog {
		words[i] = in.Pack()
	}
	return s.Load(words)
}

// CopyFrom makes s run src's loaded program from src's program counter and
// flag register. The decoded program is shared rather than copied or
// decoded again: a Sequencer never writes its program, and Load installs a
// new one.
//
//cobra:hotpath
func (s *Sequencer) CopyFrom(src *Sequencer) {
	s.prog, s.pc, s.flags = src.prog, src.pc, src.flags
}

// Reset rewinds the program counter and clears the flag register without
// disturbing the loaded program.
func (s *Sequencer) Reset() {
	s.pc = 0
	s.flags = 0
}

// Len returns the number of loaded instructions.
func (s *Sequencer) Len() int { return len(s.prog) }

// PC returns the current program counter.
func (s *Sequencer) PC() int { return s.pc }

// Fetch returns the instruction at the program counter and advances it.
// Running off the end of the program is a microcode bug; the paper's
// programs always end in a jump back to the idle point or a halt.
func (s *Sequencer) Fetch() (isa.Instr, error) {
	if s.pc < 0 || s.pc >= len(s.prog) {
		return isa.Instr{}, fmt.Errorf("iram: program counter %#x outside program of %d instructions",
			s.pc, len(s.prog))
	}
	in := s.prog[s.pc]
	s.pc++
	return in, nil
}

// Jump sets the program counter (OpJmp).
func (s *Sequencer) Jump(addr int) error {
	if addr < 0 || addr >= len(s.prog) {
		return fmt.Errorf("iram: jump target %#x outside program of %d instructions",
			addr, len(s.prog))
	}
	s.pc = addr
	return nil
}

// Flags returns the flag register.
func (s *Sequencer) Flags() uint16 { return s.flags }

// SetFlags applies an OpCtlFlag set/clear pair. Set wins over clear for
// bits present in both masks, matching a set-dominant hardware flag cell.
func (s *Sequencer) SetFlags(cfg isa.FlagCfg) {
	s.flags = (s.flags &^ cfg.Clear) | cfg.Set
}

// Flag reports whether all bits in mask are set.
func (s *Sequencer) Flag(mask uint16) bool { return s.flags&mask == mask }

// Instr returns the instruction at addr for disassembly tooling.
func (s *Sequencer) Instr(addr int) (isa.Instr, error) {
	if addr < 0 || addr >= len(s.prog) {
		return isa.Instr{}, fmt.Errorf("iram: address %#x out of range", addr)
	}
	return s.prog[addr], nil
}
