package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the summary reads: each gated
// metric's direction and bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns is the repeat-and-summarize mode: sets × n runs of one
// workload, each a fresh process of this binary with its own seed, then
// per metric the median, quartiles and spread (interquartile range over
// median) against the bound in BENCHMARK.json, and each later set's
// median shift against the first set's.
func repeatRuns(cfg runConfig, n, sets int) error {
	var spec benchSpec
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	values := make([]map[string][]float64, sets)
	units := map[string]string{}
	for s := range values {
		values[s] = map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := cfg.seed + uint64(s*n+i)
			cmd := exec.Command(exe, "-cobrad", cfg.cobrad, "-out", cfg.outDir, "-workload", cfg.w.name,
				"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(cfg.seconds), "-trace", trace)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("run with seed %d: %w", seed, err)
			}
			var last string
			for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
				last = sc.Text()
			}
			var line resultLine
			if err := json.Unmarshal([]byte(last), &line); err != nil {
				return fmt.Errorf("run with seed %d: result line: %w", seed, err)
			}
			if !line.Correct {
				return fmt.Errorf("run with seed %d: %d of %d requests failed", seed, line.Failed, line.Attempted)
			}
			for k, m := range line.Metrics {
				values[s][k] = append(values[s][k], m.Value)
				units[k] = m.Unit
			}
			fmt.Printf("set %d run %d seed %d done\n", s+1, i+1, seed)
		}
	}

	names := make([]string, 0, len(units))
	for k := range units {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("\n%s: %d set(s) of %d runs, %ds each\n", cfg.w.name, sets, n, cfg.seconds)
	fmt.Printf("%-30s %-8s %-6s %6s %12s %12s %12s %8s", "metric", "unit", "better", "bound", "median", "q1", "q3", "spread")
	for s := 1; s < sets; s++ {
		fmt.Printf(" %10s", fmt.Sprintf("set%d-worse", s+1))
	}
	fmt.Println()
	for _, k := range names {
		better, bound := "", 0.0
		for _, e := range spec.EndToEnd {
			if e.Name == k {
				better, bound = e.Better, e.Bound
			}
		}
		v := values[0][k]
		q := quartiles(v)
		med := q[1]
		spread := 0.0
		if med != 0 {
			spread = (q[2] - q[0]) / med
		}
		flag := ""
		if bound > 0 && spread > bound/3 {
			flag = " (above bound/3)"
		}
		if bound > 0 && spread > bound {
			flag = " (ABOVE BOUND)"
		}
		fmt.Printf("%-30s %-8s %-6s %6.3g %12.6g %12.6g %12.6g %8.4f", k, units[k], better, bound, med, q[0], q[2], spread)
		for s := 1; s < sets; s++ {
			m := quartiles(values[s][k])[1]
			worse := 0.0
			if med != 0 {
				worse = (m - med) / med
				if better == "higher" {
					worse = -worse
				}
			}
			mark := ""
			if bound > 0 && worse > bound {
				mark = "!"
			}
			fmt.Printf(" %+9.4f%s", worse, mark)
		}
		fmt.Println(flag)
	}
	return nil
}

// quartiles is Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), the definition the bounds are checked with.
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	ld := len(s)
	var q [3]float64
	if ld == 0 {
		return q
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
