package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// check runs the suite over one in-memory fixture and returns the findings.
func check(t *testing.T, src string) []Finding {
	t.Helper()
	fs, err := CheckSource("fixture.go", []byte(src))
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return fs
}

// codes extracts the analyzer names of a finding list.
func codes(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Code
	}
	return out
}

func TestHotpathAnalyzer(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"clean hotpath", `package x
// doc comment.
//
//cobra:hotpath
func f(x uint32) uint32 { return x<<1 | x>>31 }
`, 0},
		{"fmt in hotpath", `package x
import "fmt"

//cobra:hotpath
func f() { fmt.Println("debug") }
`, 1},
		{"allocations in hotpath", `package x
//cobra:hotpath
func f(xs []int) []int {
	buf := make([]int, 4)
	p := new(int)
	_ = p
	return append(xs, buf...)
}
`, 3},
		{"unmarked function is free", `package x
import "fmt"
func f() { fmt.Println(make([]int, 4)) }
`, 0},
		{"marker must be exact", `package x
// cobra:hotpath (a prose mention, not the directive)
func f() { _ = make([]int, 4) }
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := check(t, tc.src)
			if len(fs) != tc.want {
				t.Errorf("got %d findings %v, want %d", len(fs), fs, tc.want)
			}
			for _, f := range fs {
				if f.Code != "hotpath" {
					t.Errorf("unexpected analyzer %q: %v", f.Code, f)
				}
			}
		})
	}
}

func TestHotpathpanicAnalyzer(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"panic in hotpath", `package x
//cobra:hotpath
func f(i int) int {
	if i < 0 {
		panic("negative")
	}
	return i
}
`, 1},
		{"log fatal in hotpath", `package x
import "log"

//cobra:hotpath
func f(err error) {
	if err != nil {
		log.Fatalf("boom: %v", err)
	}
}
`, 1},
		{"every fatal variant", `package x
import "log"

//cobra:hotpath
func f() {
	panic("a")
	log.Fatal("b")
	log.Fatalf("c")
	log.Fatalln("d")
}
`, 4},
		{"errors by return are fine", `package x
import "errors"

//cobra:hotpath
func f(i int) (int, error) {
	if i < 0 {
		return 0, errors.New("negative")
	}
	return i, nil
}
`, 0},
		{"unmarked function may panic", `package x
func f() { panic("fine here") }
`, 0},
		{"log print is fine", `package x
import "log"

//cobra:hotpath
func f() { log.Print("not fatal") }
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := check(t, tc.src)
			if len(fs) != tc.want {
				t.Errorf("got %d findings %v, want %d", len(fs), fs, tc.want)
			}
			for _, f := range fs {
				if f.Code != "hotpathpanic" {
					t.Errorf("unexpected analyzer %q: %v", f.Code, f)
				}
			}
		})
	}
}

// TestRepoIsClean runs the whole suite over the repository — the same gate
// CI runs as `cobra-lint ./...`, kept inside `go test ./...` so it cannot
// be skipped.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := CheckDir(root, os.ReadFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		rel, rerr := filepath.Rel(root, f.Pos.Filename)
		if rerr != nil {
			rel = f.Pos.Filename
		}
		t.Errorf("%s:%d: %s: %s", rel, f.Pos.Line, f.Code, f.Msg)
	}
	if t.Failed() {
		t.Log("fix the findings or run: go run ./cmd/cobra-lint ./...")
	}
}
