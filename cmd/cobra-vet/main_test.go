package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cobra/internal/vet"
)

const (
	cleanFile   = "testdata/rc6_1_clean.casm"
	dirtyFile   = "testdata/falloff_dirty.casm"
	ttableFile  = "testdata/blowfish_1_ttable.casm"
	garbageFile = "testdata/garbage.casm"
)

// TestExitCodeMatrix pins the exit-status contract across the analyzer
// flags: 0 only when every requested analysis of every program is clean,
// 1 on any finding, 2 on usage errors.
func TestExitCodeMatrix(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"bad key", []string{"-builtin", "-key", "zz"}, 2},
		{"empty key", []string{"-builtin", "-key", ""}, 2},
		{"unknown flag", []string{"-nope", cleanFile}, 2},
		{"missing file", []string{"testdata/no_such.casm"}, 1},

		{"clean", []string{cleanFile}, 0},
		{"clean dataflow", []string{"-dataflow", cleanFile}, 0},
		{"clean equiv", []string{"-equiv", cleanFile}, 0},
		{"clean dataflow equiv", []string{"-dataflow", "-equiv", cleanFile}, 0},

		{"dirty", []string{dirtyFile}, 1},
		{"dirty dataflow", []string{"-dataflow", dirtyFile}, 1},
		{"dirty equiv", []string{"-equiv", dirtyFile}, 1},
		{"dirty dataflow equiv", []string{"-dataflow", "-equiv", dirtyFile}, 1},

		{"dirty then clean", []string{dirtyFile, cleanFile}, 1},

		// The -ct leg of the matrix: a proven constant-time profile and a
		// warn-only T-table profile both exit 0 (only Error findings dirty
		// the ct verdict); an unprovable program exits 1; a file the
		// assembler rejects exits 1 before any analysis runs.
		{"ct clean", []string{"-ct", cleanFile}, 0},
		{"ct warn-only", []string{"-ct", ttableFile}, 0},
		{"ct error", []string{"-ct", dirtyFile}, 1},
		{"ct unparseable", []string{"-ct", garbageFile}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if got := run(tc.args, &out, &errb); got != tc.want {
				t.Errorf("run(%v) = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					tc.args, got, tc.want, out.String(), errb.String())
			}
		})
	}
}

// TestFullReport pins the full-report contract: a dirty file first in the
// argument list must not stop the clean file after it from being checked
// and reported.
func TestFullReport(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-equiv", dirtyFile, cleanFile}, &out, &errb); got != 1 {
		t.Fatalf("exit = %d, want 1", got)
	}
	s := out.String()
	if !strings.Contains(s, "fall-off-end") {
		t.Errorf("dirty file's finding missing from output:\n%s", s)
	}
	if !strings.Contains(s, cleanFile+" clean") && !strings.Contains(s, "clean") {
		t.Errorf("clean file not reported after the dirty one:\n%s", s)
	}
	if !strings.Contains(s, "proven equivalent") {
		t.Errorf("clean file's equiv verdict missing:\n%s", s)
	}
	// The dirty file has an Error-severity finding, so its fastpath compile
	// is refused — reported as a skip, not silently dropped.
	if !strings.Contains(s, "equiv skipped") {
		t.Errorf("dirty file's equiv skip missing:\n%s", s)
	}
}

// TestBuiltinEquivGate runs the CI gate end-to-end: every built-in program
// is vetted and its compiled fastpath proven equivalent to the microcode
// (the key-request handshake program is skipped — it has no trace).
func TestBuiltinEquivGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builtin corpus sweep in -short mode")
	}
	var out, errb bytes.Buffer
	if got := run([]string{"-builtin", "-equiv"}, &out, &errb); got != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", got, out.String(), errb.String())
	}
	s := out.String()
	if n := strings.Count(s, "proven equivalent"); n < 80 {
		t.Errorf("proved %d programs, want the full corpus (>= 80)\n%s", n, s)
	}
	if !strings.Contains(s, "rijndael-keyed-2         equiv skipped") {
		t.Errorf("key-handshake program not reported as skipped:\n%s", s)
	}
	if strings.Contains(s, "NOT proven") {
		t.Errorf("corpus contains unproven programs:\n%s", s)
	}
	// Every full unroll but TEA's streams on a proven batch form.
	batch := map[string]bool{
		"rc6-20": true, "rc6-dec-20": true, "rijndael-10": true, "rijndael-dec-10": true,
		"serpent-32": true, "rc5-12": true, "rc5-dec-12": true,
		"simon64-44": true, "simon64-dec-44": true, "tea-32": false, "tea-dec-32": false,
	}
	for _, line := range strings.Split(s, "\n") {
		name, verdict, ok := strings.Cut(line, ": proven equivalent")
		want, streaming := batch[name]
		if !ok || !streaming {
			continue
		}
		delete(batch, name)
		if got := strings.Contains(verdict, ", batch form,"); got != want {
			t.Errorf("%s: verdict names a batch form: %v, want %v: %s", name, got, want, line)
		}
	}
	for name := range batch {
		t.Errorf("no verdict line for %s", name)
	}
}

// TestCTVerdictLines pins the -ct output shape the gate and the
// EXPERIMENTS table key on.
func TestCTVerdictLines(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-ct", cleanFile, ttableFile}, &out, &errb); got != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", got, out.String(), errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "ct: constant-time profile proven; fastpath agrees") {
		t.Errorf("clean file's ct verdict missing:\n%s", s)
	}
	if !strings.Contains(s, "ct: t-table class (4 secret-indexed sites: 4 lut, 0 gf); fastpath agrees") {
		t.Errorf("t-table file's ct verdict missing:\n%s", s)
	}
	if !strings.Contains(s, "secret-lut-index") {
		t.Errorf("t-table warnings missing:\n%s", s)
	}
}

// TestBuiltinCTGate runs the side-channel CI gate end-to-end: every
// built-in program produces a side-channel profile with zero Error
// findings, every compiled fastpath profile agrees with its microcode
// profile, and the key-handshake program records its documented skip.
func TestBuiltinCTGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builtin corpus sweep in -short mode")
	}
	var out, errb bytes.Buffer
	if got := run([]string{"-builtin", "-ct"}, &out, &errb); got != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", got, out.String(), errb.String())
	}
	s := out.String()
	if n := strings.Count(s, " ct: "); n < 83 {
		t.Errorf("profiled %d programs, want the full corpus (>= 83)\n%s", n, s)
	}
	if n := strings.Count(s, "fastpath agrees"); n < 82 {
		t.Errorf("only %d fastpath profiles agree, want the full compiled corpus (>= 82)", n)
	}
	if strings.Contains(s, "NOT proven") || strings.Contains(s, "DISAGREES") {
		t.Errorf("corpus contains failing ct verdicts:\n%s", s)
	}
	if !strings.Contains(s, "rijndael-keyed-2         ct: t-table class") ||
		!strings.Contains(s, "fastpath skipped") {
		t.Errorf("key-handshake program's microcode-only verdict missing:\n%s", s)
	}
	// The class split must hold: ARX ciphers prove constant-time, S-box
	// ciphers are T-table class.
	for _, want := range []string{
		"tea-", "simon64-", "rc5-", "rc6-",
	} {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, want) && strings.Contains(line, " ct: ") &&
				!strings.Contains(line, "constant-time profile proven") {
				t.Errorf("ARX program not proven constant-time: %s", line)
			}
		}
	}
	for _, want := range []string{"rijndael-", "serpent-", "blowfish-", "des-", "gost-"} {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, want) && strings.Contains(line, " ct: ") &&
				!strings.Contains(line, "t-table class") {
				t.Errorf("S-box program not reported as t-table class: %s", line)
			}
		}
	}
}

// TestJSONReports pins the machine-readable output: one report per
// (subject, check) pair, parseable, with the findings of the text output.
func TestJSONReports(t *testing.T) {
	path := filepath.Join(t.TempDir(), "findings.json")
	var out, errb bytes.Buffer
	if got := run([]string{"-ct", "-dataflow", "-json", path, ttableFile, dirtyFile}, &out, &errb); got != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", got, errb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reports []vet.JSONReport
	if err := json.Unmarshal(raw, &reports); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, raw)
	}
	byKey := map[string]vet.JSONReport{}
	for _, r := range reports {
		byKey[r.Name+"/"+r.Check] = r
	}
	ct, ok := byKey[ttableFile+"/ct"]
	if !ok {
		t.Fatalf("no ct report for %s in %v", ttableFile, byKey)
	}
	if !ct.Clean {
		t.Error("warn-only ct report not marked clean")
	}
	found := false
	for _, f := range ct.Findings {
		if f.Code == "secret-lut-index" && f.Severity == "warning" && f.Addr != nil {
			found = true
		}
	}
	if !found {
		t.Errorf("secret-lut-index finding missing from JSON: %+v", ct.Findings)
	}
	if r, ok := byKey[dirtyFile+"/ct"]; !ok || r.Clean {
		t.Errorf("dirty file's ct report missing or clean: %+v", r)
	}
	if r, ok := byKey[dirtyFile+"/vet"]; !ok || r.Clean {
		t.Errorf("dirty file's vet report missing or clean: %+v", r)
	}
	if _, ok := byKey[ttableFile+"/dataflow"]; !ok {
		t.Errorf("dataflow report missing for %s", ttableFile)
	}
}

// TestJSONToStdout: "-json -" writes the document to standard output.
func TestJSONToStdout(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-json", "-", cleanFile}, &out, &errb); got != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", got, errb.String())
	}
	var reports []vet.JSONReport
	dec := json.NewDecoder(strings.NewReader(out.String()))
	// The human-readable report precedes the JSON document; skip to it.
	s := out.String()
	idx := strings.Index(s, "[")
	if idx < 0 {
		t.Fatalf("no JSON document on stdout:\n%s", s)
	}
	dec = json.NewDecoder(strings.NewReader(s[idx:]))
	if err := dec.Decode(&reports); err != nil {
		t.Fatalf("decode: %v\n%s", err, s)
	}
	if len(reports) != 1 || reports[0].Check != "vet" || !reports[0].Clean {
		t.Errorf("reports = %+v", reports)
	}
}
