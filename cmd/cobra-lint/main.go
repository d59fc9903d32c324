// Command cobra-lint runs the repository's Go-source analyzer suite
// (package lint): stdlib-only syntactic analyzers in the go/analysis
// multichecker shape.
//
// Usage:
//
//	cobra-lint ./...               # lint the whole tree below the current dir
//	cobra-lint internal/farm       # lint one directory
//	cobra-lint file.go             # lint one file
//	cobra-lint -json out.json ./...   # ...plus machine-readable findings
//
// Analyzers: hotpath (no fmt or allocation-prone calls inside
// //cobra:hotpath functions) and hotpathpanic (no panic or log.Fatal*
// calls inside //cobra:hotpath functions). Like cobra-vet, cobra-lint is
// full-report: every requested file is checked and every finding printed
// before the exit status (1 on findings, 2 on usage) is decided.
//
// With -json <path> the findings are additionally written in the shared
// machine-readable report schema of cobra-vet -json ("-": stdout) — the CI
// artifact format.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cobra/internal/lint"
	"cobra/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool behind an exit code, testable without a process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cobra-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: cobra-lint [-json path] <package-dir|./...|file.go>...")
		fs.PrintDefaults()
	}
	jsonPath := fs.String("json", "", `write machine-readable findings to this path ("-": stdout)`)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	dirty := false
	var jsonReports []vet.JSONReport
	report := func(arg string, findings []lint.Finding, err error) {
		if err != nil {
			dirty = true
			fmt.Fprintln(stderr, "cobra-lint:", err)
			if *jsonPath != "" {
				jsonReports = append(jsonReports, vet.JSONReport{Name: arg, Check: "lint",
					Findings: []vet.JSONFinding{{Severity: "error", Code: "lint-failure", Msg: err.Error()}}})
			}
			return
		}
		jr := vet.JSONReport{Name: arg, Check: "lint", Clean: len(findings) == 0, Findings: []vet.JSONFinding{}}
		for _, f := range findings {
			dirty = true
			fmt.Fprintln(stdout, f)
			jr.Findings = append(jr.Findings, vet.JSONFinding{
				Severity: "error",
				Code:     f.Code,
				Msg:      f.Msg,
				File:     f.Pos.Filename,
				SrcLine:  f.Pos.Line,
				SrcCol:   f.Pos.Column,
			})
		}
		if *jsonPath != "" {
			jsonReports = append(jsonReports, jr)
		}
	}

	for _, arg := range fs.Args() {
		switch {
		case strings.HasSuffix(arg, "/..."):
			findings, err := lint.CheckDir(strings.TrimSuffix(arg, "/..."), os.ReadFile)
			report(arg, findings, err)
		case strings.HasSuffix(arg, ".go"):
			src, err := os.ReadFile(arg)
			if err != nil {
				report(arg, nil, err)
				continue
			}
			findings, err := lint.CheckSource(arg, src)
			report(arg, findings, err)
		default:
			findings, err := lint.CheckDir(arg, os.ReadFile)
			report(arg, findings, err)
		}
	}

	if *jsonPath != "" {
		out := stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintf(stderr, "cobra-lint: -json: %v\n", err)
				return 2
			}
			defer f.Close()
			out = f
		}
		if err := vet.WriteJSON(out, jsonReports); err != nil {
			fmt.Fprintf(stderr, "cobra-lint: -json: %v\n", err)
			return 2
		}
	}

	if dirty {
		return 1
	}
	return 0
}
