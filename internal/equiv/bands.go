package equiv

import (
	"fmt"

	"cobra/internal/datapath"
	"cobra/internal/fastpath"
)

// proveBands proves a trace's pipeline band layout (fastpath.Trace.Bands)
// and returns the reason it fails, or "". For every call length n from 1
// to depth+len(Period), a banded walk of one n-block call, whose registers
// start as fresh variables, must emit exactly the full walk's first n
// output expressions. Fresh registers make the proof cover any state the
// dead bands hold, so no live band may read one. The lengths cover every
// case: a call of more than depth blocks fills on the head, runs the whole
// array while blocks still enter, and drains on period cycles, so a longer
// call repeats the fill and one of the drains proven here, for the length
// at the same position in the period.
func proveBands(tr *fastpath.Trace) string {
	b := tr.Bands
	if len(b) < 2 || b[0] != 0 || b[len(b)-1] != tr.Rows || b[len(b)-2] > tr.Rows {
		return fmt.Sprintf("band layout %v does not start at row 0 and end at row %d", b, tr.Rows)
	}
	for s := 1; s < len(b)-1; s++ {
		if b[s] <= b[s-1] {
			return fmt.Sprintf("band layout %v is not increasing", b)
		}
	}
	a := NewArena()
	full, err := newFPWalker(a, tr)
	if err != nil {
		return err.Error()
	}
	maxN := len(b) - 2 + len(tr.Period)
	want := make([][datapath.Cols]xid, maxN)
	for k := range want {
		if want[k], err = full.nextOutput(); err != nil {
			return err.Error()
		}
	}
	for n := 1; n <= maxN; n++ {
		w, _ := newFPWalker(a, tr)
		w.call = n
		for r := range w.reg {
			for c := 0; c < datapath.Cols; c++ {
				w.reg[r][c] = a.Var(uint32(r*datapath.Cols + c))
			}
		}
		for k := 0; k < n; k++ {
			got, err := w.nextOutput()
			if err != nil {
				return fmt.Sprintf("band layout fails on a %d-block call: %v", n, err)
			}
			for c := 0; c < datapath.Cols; c++ {
				if got[c] != want[k][c] {
					return fmt.Sprintf("band layout fails on a %d-block call: output %d col %d differs from the full array's\n  banded: %s\n  full:   %s",
						n, k, c, a.String(got[c]), a.String(want[k][c]))
				}
			}
		}
	}
	return ""
}
