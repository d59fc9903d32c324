// Command cobra-vet statically verifies COBRA microcode (cobravet): the
// §3.4 conventions — instruction-window alignment, DISOUT/ENOUT bracketing
// of overfull reconfigurations, the ready/busy/data-valid protocol — plus
// control flow, dead code, and static range checks, without running the
// simulator.
//
// Usage:
//
//	cobra-vet -builtin              # lint every built-in Table 3 program
//	cobra-vet prog.casm             # lint an assembled source file
//	cobra-vet -window 4 prog.casm   # ...against an instruction window
//	cobra-vet -rows 8 prog.casm     # ...against a taller geometry
//	cobra-vet -dataflow -builtin    # ...plus the dataflow analyzers
//	cobra-vet -equiv -builtin       # ...plus translation validation
//	cobra-vet -ct -builtin          # ...plus side-channel analysis
//	cobra-vet -json ct.json -ct -builtin   # ...plus machine-readable findings
//
// With -dataflow each program additionally runs package dataflow's abstract
// walk: uninitialized-read, dead-element/dead-store, key/plaintext taint,
// and static per-window timing, reported with the effective-gate-count
// summary.
//
// With -equiv each program is additionally trace-compiled and the compiled
// fastpath is symbolically proven equivalent to the microcode (package
// equiv); a program the compiler refuses (key-request handshakes) is
// reported as skipped, not failed. An unproven trace is a finding and
// prints both sides' expressions plus a concrete diverging input witness.
//
// With -ct each program additionally runs package sca's static side-channel
// analysis: key/plaintext taint reaching table indices (the T-table class,
// a warning with element coordinates), eRAM address lanes or control
// decisions (errors), plus the microcode/fastpath profile differential.
// A T-table-class profile is a clean verdict — only Error findings dirty
// the run — so ARX ciphers must prove constant-time profiles while S-box
// ciphers document their access patterns.
//
// With -json <path> every finding is additionally written as a
// machine-readable report ("-" writes to stdout), one entry per
// (program, check) pair — the CI artifact format.
//
// cobra-vet is a full-report tool: every program and every file is checked
// and every finding printed before the exit status is decided. A broken
// program never masks findings in the ones after it. Exit status is 1 if
// any program produced a finding (or failed to build, assemble, or prove),
// 2 on usage errors.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"

	"cobra/internal/asm"
	"cobra/internal/bench"
	"cobra/internal/dataflow"
	"cobra/internal/datapath"
	"cobra/internal/equiv"
	"cobra/internal/fastpath"
	"cobra/internal/isa"
	"cobra/internal/sca"
	"cobra/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool behind an exit code, testable without a process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cobra-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	builtin := fs.Bool("builtin", false, "lint every built-in program (Table 3 sweep, decrypt, GOST, windowed Serpent, keyed Rijndael)")
	rows := fs.Int("rows", 4, "geometry rows for .casm files")
	window := fs.Int("window", 1, "instruction window size for .casm files")
	keyHex := fs.String("key", "000102030405060708090a0b0c0d0e0f", "key for the built-in builds (hex)")
	dflow := fs.Bool("dataflow", false, "also run the word-level dataflow analyzers (def-use, liveness, taint, static timing)")
	equivFlag := fs.Bool("equiv", false, "also trace-compile and symbolically validate the fastpath against the microcode")
	ctFlag := fs.Bool("ct", false, "also run the static side-channel analysis (secret-indexed table reads, address/control lanes, fastpath differential)")
	jsonPath := fs.String("json", "", `write machine-readable findings to this path ("-": stdout)`)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if !*builtin && fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	dirty := false
	var jsonReports []vet.JSONReport
	addJSON := func(r vet.JSONReport) {
		if *jsonPath != "" {
			jsonReports = append(jsonReports, r)
		}
	}
	// fail records a finding that is not a vet.Finding: a build, assembly,
	// or validation failure. It never aborts the run — full report first.
	fail := func(format string, a ...any) {
		dirty = true
		msg := fmt.Sprintf(format, a...)
		fmt.Fprintf(stderr, "cobra-vet: %s\n", msg)
		addJSON(vet.JSONReport{Check: "build", Findings: []vet.JSONFinding{
			{Severity: "error", Code: "build-failure", Msg: msg},
		}})
	}
	report := func(name string, fs []vet.Finding) {
		addJSON(vet.NewJSONReport(name, "vet", fs))
		if len(fs) == 0 {
			fmt.Fprintf(stdout, "%-24s clean\n", name)
			return
		}
		dirty = true
		for _, f := range fs {
			fmt.Fprintf(stdout, "%s: %s\n", name, f)
		}
	}
	// reportFlow prints a program's dataflow result: findings (or "flow
	// clean"), then the gate and timing summary for closed walks.
	reportFlow := func(name string, res *dataflow.Result) {
		addJSON(vet.NewJSONReport(name, "dataflow", res.Findings))
		if len(res.Findings) == 0 {
			fmt.Fprintf(stdout, "%-24s flow clean", name)
		} else {
			dirty = true
			fmt.Fprintln(stdout)
			for _, f := range res.Findings {
				fmt.Fprintf(stdout, "%s: %s\n", name, f)
			}
			fmt.Fprintf(stdout, "%-24s", name)
		}
		if res.Complete && res.Outputs > 0 {
			fmt.Fprintf(stdout, "  %d/%d elems live (%d/%d gates)",
				res.Gates.LiveElems, res.Gates.ConfiguredElems,
				res.Gates.LiveGates, res.Gates.ConfiguredGates)
			if res.Timing.Configs > 0 {
				fmt.Fprintf(stdout, "  %.3f MHz over %d cfgs", res.Timing.DatapathMHz, res.Timing.Configs)
			}
		}
		fmt.Fprintln(stdout)
	}
	// reportEquiv prints one translation-validation verdict; an unproven
	// trace dirties the run.
	reportEquiv := func(name string, res *equiv.Result) {
		fmt.Fprintf(stdout, "%s\n", res)
		jr := vet.JSONReport{Name: name, Check: "equiv", Clean: res.Proven, Findings: []vet.JSONFinding{}}
		if !res.Proven {
			dirty = true
			jr.Findings = append(jr.Findings, vet.JSONFinding{
				Severity: "error", Code: "equiv-unproven", Msg: res.String(),
			})
		}
		addJSON(jr)
	}
	// reportCT prints one constant-time verdict: the findings, then the
	// summary line. Only Error findings dirty the run — a T-table-class
	// profile (Warn findings) is a clean verdict with documented access
	// patterns.
	reportCT := func(name string, rep *sca.Report) {
		addJSON(vet.JSONReport{Name: name, Check: "ct", Clean: !rep.HasErrors(),
			Findings: vet.NewJSONReport(name, "ct", rep.Findings).Findings})
		for _, f := range rep.Findings {
			fmt.Fprintf(stdout, "%s: %s\n", name, f)
		}
		fmt.Fprintf(stdout, "%-24s ct: %s\n", name, rep.Summary())
		if rep.HasErrors() {
			dirty = true
		}
	}

	if *builtin {
		key, err := hex.DecodeString(*keyHex)
		if err != nil {
			fmt.Fprintln(stderr, "cobra-vet: bad -key:", err)
			return 2
		}
		if len(key) == 0 {
			fmt.Fprintln(stderr, "cobra-vet: bad -key: empty")
			return 2
		}
		progs, errs := bench.Builtins(key)
		for _, err := range errs {
			fail("%v", err)
		}
		for _, p := range progs {
			report(p.Name, p.Vet())
			if *dflow {
				reportFlow(p.Name, p.Analyze())
			}
			if *equivFlag {
				// A compile refusal is a documented skip, not a failure:
				// key-request handshake programs have no trace to validate.
				if res, err := p.Validate(); err != nil {
					fmt.Fprintf(stdout, "%-24s equiv skipped: %v\n", p.Name, err)
				} else {
					reportEquiv(p.Name, res)
				}
			}
			if *ctFlag {
				reportCT(p.Name, p.CheckConstantTime())
			}
		}
	}

	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fail("%v", err)
			continue
		}
		words, err := asm.Assemble(string(src))
		if err != nil {
			fail("%s: %v", path, err)
			continue
		}
		report(path, vet.CheckWords(words, vet.Config{Rows: *rows, Window: *window}))
		// The dataflow and sca analyses share the decoded instruction list.
		var ins []isa.Instr
		if *dflow || *ctFlag {
			ins = make([]isa.Instr, len(words))
			for i, w := range words {
				in, err := isa.Unpack(w)
				if err != nil {
					fail("%s: word %d: %v", path, i, err)
					ins = nil
					break
				}
				ins[i] = in
			}
		}
		if *dflow && ins != nil {
			reportFlow(path, dataflow.Analyze(ins, dataflow.Config{Rows: *rows, Window: *window}))
		}
		if *equivFlag {
			geo := datapath.Geometry{Rows: *rows}
			ex, err := fastpath.Compile(fastpath.Source{
				Name: path, Words: words, Geometry: geo, Window: *window,
			})
			if err != nil {
				fmt.Fprintf(stdout, "%-24s equiv skipped: %v\n", path, err)
			} else {
				reportEquiv(path, equiv.Validate(words, equiv.Config{
					Name: path, Geometry: geo, Window: *window,
				}, ex.Trace()))
			}
		}
		if *ctFlag && ins != nil {
			geo := datapath.Geometry{Rows: *rows}
			mc := sca.AnalyzeMicrocode(path, ins, dataflow.Config{Rows: *rows, Window: *window})
			var rep *sca.Report
			if ex, err := fastpath.Compile(fastpath.Source{
				Name: path, Words: words, Geometry: geo, Window: *window,
			}); err != nil {
				rep = sca.BuildReport(path, mc, nil, err.Error())
			} else {
				rep = sca.BuildReport(path, mc, sca.AnalyzeTrace(ex.Trace()), "")
			}
			reportCT(path, rep)
		}
	}

	if *jsonPath != "" {
		out := stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintf(stderr, "cobra-vet: -json: %v\n", err)
				return 2
			}
			defer f.Close()
			out = f
		}
		if err := vet.WriteJSON(out, jsonReports); err != nil {
			fmt.Fprintf(stderr, "cobra-vet: -json: %v\n", err)
			return 2
		}
	}

	if dirty {
		return 1
	}
	return 0
}
