package farm

import (
	"testing"

	"cobra/internal/obs"
)

// pjob is a placer test job: its first byte names its program ("a1" and
// "a2" are jobs of program "a").
type pjob string

// slot builds one worker's state: bound "" means never bound.
func slot(bound string, running bool, queue ...pjob) Slot[string, pjob] {
	return Slot[string, pjob]{Queue: queue, Bound: bound, BoundSet: bound != "", Running: running}
}

// TestPlacer drives one placer decision per row over hand-built worker
// state: each preference rule of Place, the fairness gate on claims, the
// probe gift and the two kinds of steal.
func TestPlacer(t *testing.T) {
	place := func(j pjob) func(*Placer[string, pjob]) (int, pjob, bool) {
		return func(p *Placer[string, pjob]) (int, pjob, bool) {
			w, ok := p.Place(j, make([]bool, len(p.Workers)))
			return w, "", ok
		}
	}
	pick := func(w int) func(*Placer[string, pjob]) (int, pjob, bool) {
		return func(p *Placer[string, pjob]) (int, pjob, bool) {
			j, ok := p.Pick(w)
			return w, j, ok
		}
	}
	gift := func(k string) func(*Placer[string, pjob]) (int, pjob, bool) {
		return func(p *Placer[string, pjob]) (int, pjob, bool) {
			w, ok := p.Gift(k)
			return w, "", ok
		}
	}
	for _, tc := range []struct {
		name  string
		slots []Slot[string, pjob]
		do    func(*Placer[string, pjob]) (int, pjob, bool)
		want  int    // the worker placed on, picking or gifted; -1 for none
		job   pjob   // the job picked
		bound string // the chosen worker's binding afterwards

		rebinds, same, cross int64
	}{
		{
			name:  "rule 1 idle worker bound to the program",
			slots: []Slot[string, pjob]{slot("", false), slot("a", false, "a1"), slot("a", false)},
			do:    place("a9"), want: 2, bound: "a",
		},
		{
			name:  "rule 2 idle worker never bound before queueing or rebinding",
			slots: []Slot[string, pjob]{slot("b", false), slot("a", true), slot("", false)},
			do:    place("a9"), want: 2, bound: "a",
		},
		{
			name:  "rule 3 least-loaded worker bound to the program with space",
			slots: []Slot[string, pjob]{slot("a", true, "a1"), slot("a", false, "a2", "a3"), slot("a", true), slot("b", false)},
			do:    place("a9"), want: 2, bound: "a",
		},
		{
			name:  "rule 4 rebind an idle claimable worker",
			slots: []Slot[string, pjob]{slot("a", true, "a1", "a2"), slot("b", false), slot("b", true), slot("b", true, "b1")},
			do:    place("a9"), want: 1, bound: "a", rebinds: 1,
		},
		{
			name:  "rule 5 queue behind the least-loaded claimable worker with space",
			slots: []Slot[string, pjob]{slot("a", true, "a1", "a2"), slot("b", true, "b1"), slot("b", true), slot("b", false, "b2", "b3")},
			do:    place("a9"), want: 2, bound: "a", rebinds: 1,
		},
		{
			name:  "running job counts as load",
			slots: []Slot[string, pjob]{slot("a", true, "a1"), slot("a", false, "a2")},
			do:    place("a9"), want: 1, bound: "a",
		},
		{
			name:  "fairness no claim from a program holding one more worker",
			slots: []Slot[string, pjob]{slot("a", true, "a1", "a2"), slot("b", true), slot("b", true)},
			do:    place("a9"), want: -1,
		},
		{
			name:  "fairness claim from a program holding two more workers",
			slots: []Slot[string, pjob]{slot("a", true, "a1", "a2"), slot("b", true, "b1"), slot("b", true), slot("b", true)},
			do:    place("a9"), want: 2, bound: "a", rebinds: 1,
		},
		{
			name:  "fairness program with no worker claims from anyone",
			slots: []Slot[string, pjob]{slot("a", true), slot("b", true, "b1")},
			do:    place("c9"), want: 0, bound: "c", rebinds: 1,
		},
		{
			name:  "probe gift to the first idle worker never bound",
			slots: []Slot[string, pjob]{slot("a", false), slot("", false), slot("", false)},
			do:    gift("c"), want: 1, bound: "c",
		},
		{
			name:  "probe gift refused once every worker is bound",
			slots: []Slot[string, pjob]{slot("a", false), slot("b", false)},
			do:    gift("c"), want: -1,
		},
		{
			name:  "same-program steal has no threshold",
			slots: []Slot[string, pjob]{slot("a", false), slot("a", true, "a1")},
			do:    pick(0), want: 0, job: "a1", bound: "a", same: 1,
		},
		{
			name:  "same-program steal takes the tail job of running victims only",
			slots: []Slot[string, pjob]{slot("a", false), slot("a", false, "a1", "a2"), slot("b", true, "b1", "a3")},
			do:    pick(0), want: 0, job: "a3", bound: "a", same: 1,
		},
		{
			name:  "cross steal needs a victim stealBacklog deep",
			slots: []Slot[string, pjob]{slot("a", false), slot("b", true, "b1")},
			do:    pick(0), want: -1,
		},
		{
			name:  "cross steal rebinds the thief",
			slots: []Slot[string, pjob]{slot("a", false), slot("b", true, "b1"), slot("c", true, "c1", "c2")},
			do:    pick(0), want: 0, job: "c2", bound: "c", rebinds: 1, cross: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &Placer[string, pjob]{
				Workers:       tc.slots,
				Key:           func(j pjob) string { return string(j[:1]) },
				Rebinds:       new(obs.Counter),
				ProgramSteals: new(obs.Counter),
				CrossSteals:   new(obs.Counter),
			}
			w, j, ok := tc.do(p)
			if !ok {
				w = -1
			}
			if w != tc.want || j != tc.job {
				t.Fatalf("got worker %d job %q, want worker %d job %q", w, j, tc.want, tc.job)
			}
			if w >= 0 && p.Workers[w].Bound != tc.bound {
				t.Errorf("worker %d bound to %q, want %q", w, p.Workers[w].Bound, tc.bound)
			}
			if r, s, x := p.Rebinds.Value(), p.ProgramSteals.Value(), p.CrossSteals.Value(); r != tc.rebinds || s != tc.same || x != tc.cross {
				t.Errorf("rebinds/program steals/cross steals = %d/%d/%d, want %d/%d/%d", r, s, x, tc.rebinds, tc.same, tc.cross)
			}
		})
	}
}
