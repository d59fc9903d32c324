package sca

import (
	"fmt"

	"cobra/internal/datapath"
	"cobra/internal/vet"
)

// Compare runs the microcode/fastpath differential: the two profiles must
// name the same table-read sites with the same index taints, and agree on
// the taint of every collected output word. Counts and tick numbers are
// walk-length artifacts and deliberately not compared; eRAM address and
// control lanes are microcode-only (the fastpath fold resolves every eRAM
// read to an immediate, so those lanes have no fastpath counterpart).
//
// The site sets must match exactly: a microcode site missing from the
// fastpath means the compiled ops dropped a table read the microcode
// schedules, and a fastpath site missing from the microcode means they read
// a table the microcode analysis never saw.
func Compare(mc, fp *Profile) []vet.Finding {
	var out []vet.Finding
	mismatch := func(msg string) {
		out = append(out, vet.Finding{Addr: 0, Sev: vet.Error, Code: "ct-profile-mismatch", Msg: msg})
	}

	if !fp.Complete {
		mismatch("fastpath taint walk did not close: differential check impossible")
		return out
	}

	fpSites := make(map[[3]int]Access, len(fp.Accesses))
	for _, a := range fp.Accesses {
		fpSites[accessKey(a.Row, a.Col, a.Elem)] = a
	}
	mcSites := make(map[[3]int]bool, len(mc.Accesses))

	for _, m := range mc.Accesses {
		k := accessKey(m.Row, m.Col, m.Elem)
		mcSites[k] = true
		f, ok := fpSites[k]
		if !ok {
			mismatch(fmt.Sprintf("table site %s: microcode reads it (index taint %s, first at cycle %d) but the compiled fastpath has no such read", m, m.Taint, m.FirstTick))
			continue
		}
		if f.Taint != m.Taint {
			mismatch(fmt.Sprintf("table site %s: index taint differs — microcode %s (first at cycle %d) vs fastpath %s (first at tick %d)", m, m.Taint, m.FirstTick, f.Taint, f.FirstTick))
		}
	}
	for _, f := range fp.Accesses {
		if !mcSites[accessKey(f.Row, f.Col, f.Elem)] {
			mismatch(fmt.Sprintf("table site %s: compiled fastpath reads it (index taint %s, first at tick %d) but the microcode profile has no such site", f, f.Taint, f.FirstTick))
		}
	}

	for c := 0; c < datapath.Cols; c++ {
		if mc.OutTaint[c] != fp.OutTaint[c] {
			mismatch(fmt.Sprintf("output column %d: taint differs — microcode %s vs fastpath %s", c, mc.OutTaint[c], fp.OutTaint[c]))
		}
	}
	return out
}
