package fastpath_test

// Restoring a program's recording (sim.Machine.Restore, the device's load
// and streaming reload) must stand in for program.Load, which runs the
// configuration phase again, on every built-in program.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/isa"
	"cobra/internal/obs"
	"cobra/internal/program"
	"cobra/internal/sim"
)

// lane is one machine under comparison, with its own cobra_sim_* registry.
type lane struct {
	m   *sim.Machine
	reg *obs.Registry
}

// newLane builds an observed machine for p's geometry. With prev set it is
// prev's machine instead, loaded with prev and used for one 3-block call,
// so it holds prev's configuration, pipeline contents and eRAM.
func newLane(t *testing.T, p, prev *program.Program, rng *rand.Rand) *lane {
	t.Helper()
	tiling := p
	if prev != nil {
		tiling = prev
	}
	m, err := program.NewMachine(tiling)
	if err != nil {
		t.Fatal(err)
	}
	l := &lane{m: m, reg: obs.NewRegistry()}
	m.Obs = sim.NewObserver(l.reg)
	if prev != nil {
		if err := program.Load(m, prev); err != nil {
			t.Fatal(err)
		}
		in := randomBlocks(rng, 3)
		if _, err := program.Run(m, prev, in, in, program.Opts{}); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// counters returns the lane's cobra_sim_* values and lifetime counters.
func (l *lane) counters() map[string]int64 {
	out := map[string]int64{
		"Resyncs":      int64(l.m.Resyncs()),
		"ConfigInstrs": int64(l.m.ConfigInstrs()),
	}
	for _, s := range l.reg.Gather() {
		out[s.Name] = s.Value
	}
	return out
}

// moved returns the counter movement from before to now.
func moved(before, now map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(now))
	for k, v := range now {
		d[k] = v - before[k]
	}
	return d
}

// writtenCells lists the eRAM cells p's microcode writes (ERAMW; no
// built-in program stores through a capture port).
func writtenCells(p *program.Program) []datapath.ERAMRef {
	var cells []datapath.ERAMRef
	seen := map[datapath.ERAMRef]bool{}
	for _, in := range p.Instrs {
		if in.Op != isa.OpERAMWrite {
			continue
		}
		w := isa.DecodeERAMWrite(in.Data)
		ref := datapath.ERAMRef{Col: int(in.Slice.Col) & 3, Bank: int(w.Bank) & 3, Addr: int(w.Addr)}
		if !seen[ref] {
			seen[ref] = true
			cells = append(cells, ref)
		}
	}
	return cells
}

// allCells lists every eRAM cell.
func allCells() []datapath.ERAMRef {
	var cells []datapath.ERAMRef
	for c := 0; c < datapath.Cols; c++ {
		for b := 0; b < datapath.ERAMBanks; b++ {
			for a := 0; a < datapath.ERAMWords; a++ {
				cells = append(cells, datapath.ERAMRef{Col: c, Bank: b, Addr: a})
			}
		}
	}
	return cells
}

// diffState reports the first difference between two machines' state:
// every RCE's configuration, chain and LUTs, output register and hold,
// the shufflers, whitening registers, capture ports, input multiplexor,
// global enable, playback address, feedback and output vectors, the PC,
// flag word and window, the Stats and queues, and the given eRAM cells.
func diffState(x, y *sim.Machine, cells []datapath.ERAMRef) error {
	a, b := x.Array, y.Array
	geo := a.Geometry()
	if geo != b.Geometry() {
		return fmt.Errorf("geometry %v vs %v", geo, b.Geometry())
	}
	for r := 0; r < geo.Rows; r++ {
		for c := 0; c < datapath.Cols; c++ {
			if *a.RCE(r, c) != *b.RCE(r, c) {
				return fmt.Errorf("r%d.c%d: configuration or LUTs differ", r, c)
			}
			if a.RegValue(r, c) != b.RegValue(r, c) || a.Held(r, c) != b.Held(r, c) {
				return fmt.Errorf("r%d.c%d: register %#x held %v vs %#x held %v", r, c,
					a.RegValue(r, c), a.Held(r, c), b.RegValue(r, c), b.Held(r, c))
			}
		}
	}
	for i := 0; i < geo.Shufflers(); i++ {
		if a.Shuffler(i) != b.Shuffler(i) {
			return fmt.Errorf("shuffler %d: %v vs %v", i, a.Shuffler(i), b.Shuffler(i))
		}
	}
	for c := 0; c < datapath.Cols; c++ {
		if a.Whitening(c) != b.Whitening(c) {
			return fmt.Errorf("column %d whitening: %+v vs %+v", c, a.Whitening(c), b.Whitening(c))
		}
		if a.Capture(c) != b.Capture(c) {
			return fmt.Errorf("column %d capture: %+v vs %+v", c, a.Capture(c), b.Capture(c))
		}
	}
	switch {
	case a.InMux() != b.InMux():
		return fmt.Errorf("input mux %+v vs %+v", a.InMux(), b.InMux())
	case a.Enabled() != b.Enabled():
		return fmt.Errorf("enable %v vs %v", a.Enabled(), b.Enabled())
	case a.PlaybackAddr() != b.PlaybackAddr():
		return fmt.Errorf("playback address %d vs %d", a.PlaybackAddr(), b.PlaybackAddr())
	case a.Feedback() != b.Feedback():
		return fmt.Errorf("feedback %v vs %v", a.Feedback(), b.Feedback())
	case a.Output() != b.Output():
		return fmt.Errorf("output %v vs %v", a.Output(), b.Output())
	case x.Seq.PC() != y.Seq.PC() || x.Seq.Flags() != y.Seq.Flags():
		return fmt.Errorf("pc %#x flags %#x vs pc %#x flags %#x", x.Seq.PC(), x.Seq.Flags(), y.Seq.PC(), y.Seq.Flags())
	case x.Seq.Len() != y.Seq.Len():
		return fmt.Errorf("program length %d vs %d", x.Seq.Len(), y.Seq.Len())
	case x.Window != y.Window || x.Go != y.Go || x.Dirty() != y.Dirty():
		return fmt.Errorf("window %d go %v dirty %v vs window %d go %v dirty %v",
			x.Window, x.Go, x.Dirty(), y.Window, y.Go, y.Dirty())
	case x.Stats() != y.Stats():
		return fmt.Errorf("stats %+v vs %+v", x.Stats(), y.Stats())
	case x.PendingInputs() != y.PendingInputs() || len(x.Outputs()) != len(y.Outputs()):
		return fmt.Errorf("queues %d in %d out vs %d in %d out",
			x.PendingInputs(), len(x.Outputs()), y.PendingInputs(), len(y.Outputs()))
	}
	for _, ref := range cells {
		if va, vb := a.ReadERAM(ref.Col, ref.Bank, ref.Addr), b.ReadERAM(ref.Col, ref.Bank, ref.Addr); va != vb {
			return fmt.Errorf("eRAM c%d.b%d[%d]: %#x vs %#x", ref.Col, ref.Bank, ref.Addr, va, vb)
		}
	}
	return nil
}

// neighbour returns another program of p's geometry, preferring p's
// instruction window, for the used-machine case. A geometry no other
// built-in uses gets p's cipher at p's depth under another key.
func neighbour(t *testing.T, progs []*program.Program, p *program.Program) *program.Program {
	t.Helper()
	var other *program.Program
	for _, q := range progs {
		if q == p || q.Geometry != p.Geometry {
			continue
		}
		if q.Window == p.Window {
			return q
		}
		if other == nil {
			other = q
		}
	}
	if other != nil {
		return other
	}
	s, err := program.Lookup(p.Cipher)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(0xc3 ^ 7*i)
	}
	q, err := s.Build(key, p.HWRounds)
	if err != nil {
		t.Fatal(err)
	}
	if q.Geometry != p.Geometry {
		t.Fatalf("%s under another key has geometry %v, want %v", p.Name, q.Geometry, p.Geometry)
	}
	return q
}

// TestRestoreMatchesReload restores every built-in program's recording
// onto a fresh machine and onto one that last ran a different program of
// the same geometry, beside a machine that program.Load reloads from the
// same start. After the load and after interpreter calls of 1, 2 and 5
// blocks — before each of which a used streaming machine is restored
// again, where program.Run reloads the other — the two must agree on the
// outputs, the per-call Stats, the cobra_sim_* and lifetime counter
// movement, and the whole machine state: on a fresh machine every eRAM
// cell, on a used one the cells the program writes (the restored machine
// holds a fresh machine's contents in the others). On the fresh machine
// the trace compiled from the recording (Program.CompileFrom) must give
// the interpreter's outputs and Stats too. The refusals subtest checks
// that Restore refuses a hooked machine, an armed uninit sentinel and
// another geometry.
func TestRestoreMatchesReload(t *testing.T) {
	cases := allBuilders()
	progs := make([]*program.Program, len(cases))
	for i, c := range cases {
		p, err := c.build()
		if err != nil {
			t.Fatalf("%s: build: %v", c.name, err)
		}
		progs[i] = p
	}
	for i, c := range cases {
		p := progs[i]
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			rec, err := p.Record()
			if err != nil {
				t.Fatal(err)
			}
			ex, err := p.CompileFrom(rec)
			if err != nil {
				t.Fatalf("compile from the recording: %v", err)
			}
			for _, prev := range []*program.Program{nil, neighbour(t, progs, p)} {
				start, cells := "fresh", allCells()
				if prev != nil {
					start, cells = "after "+prev.Name, writtenCells(p)
				}
				rng := rand.New(rand.NewSource(int64(0x7e57 + i)))
				loaded, restored := newLane(t, p, prev, rng), newLane(t, p, prev, rng)
				l0, r0 := loaded.counters(), restored.counters()
				if err := program.Load(loaded.m, p); err != nil {
					t.Fatal(err)
				}
				if err := restored.m.Restore(rec); err != nil {
					t.Fatalf("%s: restore: %v", start, err)
				}
				check := func(when string) {
					t.Helper()
					if err := diffState(restored.m, loaded.m, cells); err != nil {
						t.Fatalf("%s, %s: restored vs reloaded: %v", start, when, err)
					}
					lm, rm := moved(l0, loaded.counters()), moved(r0, restored.counters())
					for k, v := range lm {
						if rm[k] != v {
							t.Fatalf("%s, %s: %s moved %d restored, %d reloaded", start, when, k, rm[k], v)
						}
					}
				}
				check("after the load")
				for _, n := range []int{1, 2, 5} {
					in := randomBlocks(rng, n)
					want := make([]bits.Block128, n)
					got := make([]bits.Block128, n)
					wantStats, err := program.Run(loaded.m, p, want, in, program.Opts{})
					if err != nil {
						t.Fatal(err)
					}
					if p.Streaming && restored.m.Dirty() {
						if err := restored.m.Restore(rec); err != nil {
							t.Fatal(err)
						}
					}
					gotStats, err := program.Run(restored.m, p, got, in, program.Opts{})
					if err != nil {
						t.Fatal(err)
					}
					when := fmt.Sprintf("%d-block call", n)
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%s, %s: block %d: restored %v, reloaded %v", start, when, j, got[j], want[j])
						}
					}
					if gotStats != wantStats {
						t.Fatalf("%s, %s: stats %+v restored, %+v reloaded", start, when, gotStats, wantStats)
					}
					check("after the " + when)
					if prev != nil {
						continue
					}
					fastStats, err := ex.EncryptInto(got, in)
					if err != nil {
						t.Fatal(err)
					}
					for j := range want {
						if got[j] != want[j] || fastStats != wantStats {
							t.Fatalf("%s: the trace compiled from the recording gives block %d %v and %+v, the interpreter %v and %+v",
								when, j, got[j], fastStats, want[j], wantStats)
						}
					}
				}
			}
		})
	}

	t.Run("refusals", func(t *testing.T) {
		p := progs[0]
		rec, err := p.Record()
		if err != nil {
			t.Fatal(err)
		}
		other := p.Geometry
		other.Rows += 2
		odd, err := sim.New(other, p.Window)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			name string
			m    *sim.Machine
			want error
		}{
			{"trace", hooked(t, p, func(m *sim.Machine) { m.Trace = func(int, isa.Instr) {} }), sim.ErrRestoreObserved},
			{"tick hook", hooked(t, p, func(m *sim.Machine) { m.TickHook = func() {} }), sim.ErrRestoreObserved},
			{"uninit sentinel", hooked(t, p, func(m *sim.Machine) { m.Array.TrackUninit() }), datapath.ErrUninitArmed},
			{"geometry", odd, datapath.ErrGeometryMismatch},
		} {
			if err := r.m.Restore(rec); !errors.Is(err, r.want) {
				t.Errorf("%s: Restore returned %v, want %v", r.name, err, r.want)
			}
			if r.m.Seq.Len() != 0 || r.m.Resyncs() != 0 {
				t.Errorf("%s: a refused Restore changed the machine", r.name)
			}
		}
	})
}

// hooked returns a fresh machine for p with set applied.
func hooked(t *testing.T, p *program.Program, set func(*sim.Machine)) *sim.Machine {
	t.Helper()
	m, err := program.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	set(m)
	return m
}
