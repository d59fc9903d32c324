package program

import (
	"strings"
	"testing"

	"cobra/internal/dataflow"
	"cobra/internal/fastpath"
	"cobra/internal/rce"
	"cobra/internal/sca"
	"cobra/internal/vet"
)

var scaKey = []byte{
	0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef,
	0xfe, 0xdc, 0xba, 0x98, 0x76, 0x54, 0x32, 0x10,
}

// scaCorpus builds one configuration per cipher family (plus a decrypt and
// a windowed variant) with the expected constant-time verdict. The ARX
// ciphers must prove fully constant-time profiles; the S-box ciphers are
// T-table class — Warn findings only.
type scaEntry struct {
	p  *Program
	ct bool
}

func scaCorpus(t *testing.T) []scaEntry {
	t.Helper()
	var out []scaEntry
	add := func(p *Program, err error, ct bool) {
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		out = append(out, scaEntry{p, ct})
	}
	p, err := BuildTEA(scaKey, 1)
	add(p, err, true)
	p, err = BuildSIMON(scaKey, 2)
	add(p, err, true)
	p, err = BuildRC5(scaKey[:16], 2, 12)
	add(p, err, true)
	p, err = BuildRC6(scaKey, 2, 20)
	add(p, err, true)
	p, err = BuildRC6Decrypt(scaKey, 1, 20)
	add(p, err, true)
	p, err = BuildRijndael(scaKey, 1)
	add(p, err, false)
	p, err = BuildSerpent(scaKey, 1)
	add(p, err, false)
	p, err = BuildSerpentWindowed(scaKey, 4)
	add(p, err, false)
	p, err = BuildBlowfish(scaKey, 1)
	add(p, err, false)
	p, err = BuildBlowfish(scaKey, 2)
	add(p, err, false)
	p, err = BuildDES(scaKey[:8])
	add(p, err, false)
	p, err = BuildGOST(append(append([]byte{}, scaKey...), scaKey...))
	add(p, err, false)
	return out
}

// TestCheckConstantTimeCorpus pins the constant-time verdict per cipher
// class: ARX ciphers prove clean profiles, S-box ciphers report
// secret-lut-index warnings and nothing worse, and every compiled fastpath
// profile agrees with its microcode profile.
func TestCheckConstantTimeCorpus(t *testing.T) {
	for _, tc := range scaCorpus(t) {
		tc := tc
		t.Run(tc.p.Name, func(t *testing.T) {
			rep := tc.p.CheckConstantTime()
			if rep.HasErrors() {
				for _, f := range rep.Findings {
					t.Logf("finding: %s", f)
				}
				t.Fatalf("%s: unexpected error findings (summary: %s)", tc.p.Name, rep.Summary())
			}
			if rep.Fastpath == nil {
				t.Fatalf("%s: no fastpath profile (skip: %s)", tc.p.Name, rep.FastpathSkip)
			}
			if got := rep.ConstantTime(); got != tc.ct {
				t.Fatalf("%s: ConstantTime() = %v, want %v (summary: %s)", tc.p.Name, got, tc.ct, rep.Summary())
			}
			if !tc.ct {
				warns := 0
				for _, f := range rep.Findings {
					if f.Code == "secret-lut-index" && f.Sev == vet.Warn {
						warns++
					}
				}
				if warns == 0 {
					t.Fatalf("%s: T-table class but no secret-lut-index warnings", tc.p.Name)
				}
				if !strings.Contains(rep.Summary(), "t-table class") {
					t.Fatalf("%s: summary %q", tc.p.Name, rep.Summary())
				}
			}
			if !strings.Contains(rep.Summary(), "fastpath agrees") {
				t.Fatalf("%s: summary %q", tc.p.Name, rep.Summary())
			}
		})
	}
}

// TestCheckConstantTimeKeyedSkipsFastpath pins the key-handshake program's
// report shape: microcode-only, with the compile refusal recorded.
func TestCheckConstantTimeKeyedSkipsFastpath(t *testing.T) {
	p, err := BuildRijndaelKeyed()
	if err != nil {
		t.Fatal(err)
	}
	rep := p.CheckConstantTime()
	if rep.Fastpath != nil {
		t.Fatal("keyed program unexpectedly produced a fastpath profile")
	}
	if rep.FastpathSkip == "" {
		t.Fatal("FastpathSkip empty")
	}
	if !strings.Contains(rep.Summary(), "fastpath skipped") {
		t.Fatalf("summary %q", rep.Summary())
	}
	if rep.HasErrors() {
		t.Fatalf("unexpected error findings: %v", rep.Findings)
	}
}

// mutateTrace compiles the program and hands the trace to mut for seeded
// corruption, then returns the microcode/fastpath differential. The trace
// is the one its executor runs, but that executor is private to this
// call, so mut may corrupt it in place.
func mutateTrace(t *testing.T, p *Program, mut func(tr *fastpath.Trace)) []vet.Finding {
	t.Helper()
	ex, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tr := ex.Trace()
	mut(tr)
	mc := sca.AnalyzeMicrocode(p.Name, p.Instrs, dataflow.Config{Rows: p.Geometry.Rows, Window: p.Window})
	return sca.Compare(mc, sca.AnalyzeTrace(tr))
}

// TestSeededDefectMaskingElision drops the initial AddRoundKey whitening
// (a masking op) from column 0 of every compiled cycle of the streaming
// rijndael pipeline: the round-1 SubBytes site in that column is then
// indexed by bare plaintext, its taint loses the key dependency the
// microcode proves, and the differential must say so. The streaming
// config matters — in a feedback config the taint join over later passes
// would hide the drop.
func TestSeededDefectMaskingElision(t *testing.T) {
	p, err := BuildRijndael(scaKey, 10)
	if err != nil {
		t.Fatal(err)
	}
	findings := mutateTrace(t, p, func(tr *fastpath.Trace) {
		dropped := false
		for _, seg := range [][]fastpath.TraceTick{tr.Head, tr.Period} {
			for ti := range seg {
				if seg[ti].WhiteIn[0].Mode != 0 {
					dropped = true
				}
				seg[ti].WhiteIn[0] = fastpath.TraceWhite{}
			}
		}
		if !dropped {
			t.Fatal("no input whitening found to drop")
		}
	})
	requireMismatch(t, findings)
}

// TestSeededDefectDroppedTableRead deletes the round-1 SubBytes read at
// r0.c0 from every compiled cycle: the site vanishes from the fastpath
// profile while the microcode still schedules it.
func TestSeededDefectDroppedTableRead(t *testing.T) {
	p, err := BuildRijndael(scaKey, 10)
	if err != nil {
		t.Fatal(err)
	}
	findings := mutateTrace(t, p, func(tr *fastpath.Trace) {
		dropped := false
		for _, seg := range [][]fastpath.TraceTick{tr.Head, tr.Period} {
			for ti := range seg {
				if len(seg[ti].Rows) == 0 {
					continue
				}
				cell := &seg[ti].Rows[0].Cells[0]
				for si := 0; si < len(cell.Steps); si++ {
					if cell.Steps[si].Kind == fastpath.StepS8 {
						cell.Steps = append(cell.Steps[:si], cell.Steps[si+1:]...)
						dropped = true
						si--
					}
				}
			}
		}
		if !dropped {
			t.Fatal("no S8 step found to drop at r0.c0")
		}
	})
	requireMismatch(t, findings)
}

// TestSeededDefectExtraTableRead inserts a plaintext-indexed table read
// the microcode never scheduled.
func TestSeededDefectExtraTableRead(t *testing.T) {
	p, err := BuildRC6(scaKey, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	var lut rce.LUTStore
	findings := mutateTrace(t, p, func(tr *fastpath.Trace) {
		tick := &tr.Period[0]
		for ti := range tr.Period {
			if tr.Period[ti].Enabled {
				tick = &tr.Period[ti]
				break
			}
		}
		cell := &tick.Rows[0].Cells[0]
		cell.Passthrough = false
		cell.Steps = append(cell.Steps, fastpath.TraceStep{Kind: fastpath.StepS8, LUT: &lut})
	})
	requireMismatch(t, findings)
}

func requireMismatch(t *testing.T, findings []vet.Finding) {
	t.Helper()
	if len(findings) == 0 {
		t.Fatal("differential reported no mismatch for seeded defect")
	}
	for _, f := range findings {
		if f.Code != "ct-profile-mismatch" || f.Sev != vet.Error {
			t.Fatalf("unexpected finding %s", f)
		}
	}
}
