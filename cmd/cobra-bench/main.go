// Command cobra-bench regenerates the paper's evaluation artifacts: every
// table (1–6) and the architecture figures, from literature data, the
// census, the cycle-accurate simulator and the timing/area models.
//
// Usage:
//
//	cobra-bench                  # everything
//	cobra-bench -table 3        # one table
//	cobra-bench -table 3 -compare  # paper-vs-measured columns
//	cobra-bench -figure 1       # architecture topology
//	cobra-bench -batch 128      # batch size for the Table 3/6 sweep
//	cobra-bench -json           # measured tables and the extended sweep as JSON
//	cobra-bench -fastpath       # trace-compiled executor vs interpreter
//	cobra-bench -fastpath -json # ...archived in the JSON report
//	cobra-bench -farm           # mixed-tenant scheduler study (affinity vs round-robin)
//	cobra-bench -farm -json     # ...as BENCH_farm.json
//	cobra-bench -metrics-dump   # Prometheus counter dump after the run
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cobra/internal/bench"
	"cobra/internal/datapath"
	"cobra/internal/obs"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-6); 0 = all")
	ablation := flag.Bool("ablation", false, "run the pipeline-fill batch-size study instead of tables")
	window := flag.Bool("window", false, "run the §3.4 instruction-window study instead of tables")
	feedback := flag.Bool("feedback", false, "run the NFB-vs-FB mode study instead of tables")
	figure := flag.Int("figure", 0, "render a figure (1 or 2) instead of tables")
	compare := flag.Bool("compare", false, "print paper-vs-measured comparison for table 3")
	batch := flag.Int("batch", 64, "blocks per measurement")
	keyHex := flag.String("key", strings.Repeat("00", 16), "key (hex)")
	rows := flag.Int("rows", 4, "geometry rows for table 5")
	jsonOut := flag.Bool("json", false, "emit the measured table metrics as JSON instead of text")
	fastpath := flag.Bool("fastpath", false, "measure the trace-compiled executor against the interpreter")
	farmStudy := flag.Bool("farm", false, "run the mixed-tenant farm scheduler study (affinity vs round-robin)")
	farmWorkers := flag.String("farm-workers", "1,2,4,8,16", "comma-separated pool widths for the -farm study")
	metricsDump := flag.Bool("metrics-dump", false, "write a Prometheus text dump of all counters to stderr after the run")
	flag.Parse()

	if *metricsDump {
		bench.Metrics = obs.Default
		// Dump goes to stderr so -json output on stdout stays parseable.
		defer func() {
			if err := obs.Default.WritePrometheus(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "cobra-bench: metrics dump:", err)
			}
		}()
	}

	key, err := hex.DecodeString(*keyHex)
	if err != nil {
		fatal(fmt.Errorf("bad -key: %v", err))
	}

	if *farmStudy {
		var workers []int
		for _, part := range strings.Split(*farmWorkers, ",") {
			n, perr := strconv.Atoi(strings.TrimSpace(part))
			if perr != nil || n < 1 {
				fatal(fmt.Errorf("bad -farm-workers entry %q", part))
			}
			workers = append(workers, n)
		}
		rep, err := bench.FarmSweep(key, workers)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			out, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(out))
		} else {
			fmt.Println(bench.FarmSweepText(rep))
		}
		return
	}

	if *feedback {
		text, err := bench.FeedbackSweepText(key)
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
		return
	}

	if *window {
		text, err := bench.WindowSweepText(key)
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
		return
	}

	if *ablation {
		text, err := bench.BatchSweepText(key)
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
		return
	}

	if *figure != 0 {
		var text string
		switch *figure {
		case 1:
			text, err = bench.Figure1Text(bench.Config{Alg: "rijndael", Rounds: 2}, key)
		case 2, 3:
			text, err = bench.Figure23Text(bench.Config{Alg: "rc6", Rounds: 2}, key)
		default:
			err = fmt.Errorf("no figure %d", *figure)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
		return
	}

	var fms []bench.FastpathMeasurement
	if *fastpath {
		fms, err = bench.MeasureFastpathAll(key, *batch)
		if err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Println(bench.FastpathTableText(fms))
			return
		}
	}

	needMeasurements := *table == 0 || *table == 3 || *table == 6 || *jsonOut
	var ms []bench.Measurement
	if needMeasurements {
		ms, err = bench.MeasureAll(key, *batch)
		if err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		ext, err := bench.MeasureExtended(key, *batch)
		if err != nil {
			fatal(err)
		}
		out, err := bench.ReportJSON(ms, ext, fms, *batch)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}

	show := func(n int) bool { return *table == 0 || *table == n }
	if show(1) {
		fmt.Println(bench.Table1Text())
	}
	if show(2) {
		fmt.Println(bench.Table2Text())
	}
	if show(3) {
		fmt.Println(bench.Table3Text(ms))
		if *compare {
			fmt.Println(bench.Table3CompareText(ms))
		}
		fmt.Println(bench.ATMText(ms))
	}
	if show(4) {
		fmt.Println(bench.Table4Text())
	}
	if show(5) {
		fmt.Println(bench.Table5Text(datapath.Geometry{Rows: *rows}))
	}
	if show(6) {
		fmt.Println(bench.Table6Text(ms))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cobra-bench:", err)
	os.Exit(1)
}
