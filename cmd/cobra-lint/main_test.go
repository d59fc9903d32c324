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

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.go")
	if err := os.WriteFile(clean, []byte("package x\n\nfunc F() int { return 1 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dirty := filepath.Join(dir, "dirty.go")
	dirtySrc := `package x

//cobra:hotpath
func f() []int { return make([]int, 4) }
`
	if err := os.WriteFile(dirty, []byte(dirtySrc), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"clean file", []string{clean}, 0},
		{"dirty file", []string{dirty}, 1},
		{"dir walk", []string{dir}, 1},
		{"recursive pattern", []string{dir + "/..."}, 1},
		{"missing file", []string{filepath.Join(dir, "absent.go")}, 1},
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

// TestFullReport pins that a dirty file does not stop later arguments from
// being checked.
func TestFullReport(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.go")
	b := filepath.Join(dir, "b.go")
	os.WriteFile(a, []byte("package x\n\n//cobra:hotpath\nfunc f() { panic(\"boom\") }\n"), 0o644)
	os.WriteFile(b, []byte("package x\n\n//cobra:hotpath\nfunc g() { _ = make([]int, 1) }\n"), 0o644)
	var out, errb bytes.Buffer
	if got := run([]string{a, b}, &out, &errb); got != 1 {
		t.Fatalf("exit = %d, want 1", got)
	}
	s := out.String()
	if !strings.Contains(s, ": hotpathpanic: ") || !strings.Contains(s, ": hotpath: ") {
		t.Errorf("expected findings from both files:\n%s", s)
	}
}

// TestJSONReports pins the machine-readable output: source positions in
// the shared cobra-vet schema, one report per argument.
func TestJSONReports(t *testing.T) {
	dir := t.TempDir()
	dirty := filepath.Join(dir, "dirty.go")
	src := `package x

//cobra:hotpath
func g() {
	panic("boom")
}
`
	if err := os.WriteFile(dirty, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "findings.json")
	var out, errb bytes.Buffer
	if got := run([]string{"-json", path, dirty}, &out, &errb); got != 1 {
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
	if len(reports) != 1 || reports[0].Check != "lint" || reports[0].Clean {
		t.Fatalf("reports = %+v", reports)
	}
	f := reports[0].Findings[0]
	if f.Code != "hotpathpanic" || f.File != dirty || f.SrcLine != 5 || f.SrcCol == 0 {
		t.Errorf("finding = %+v", f)
	}
}
