package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"
)

// simCounters are the daemon's simulated-hardware counters over a
// stretch of traffic. Only the simulated clock is read here, so a
// host-only change to any layer must leave them identical.
type simCounters struct {
	DeviceCycles      int64
	BlocksOut         int64
	FastpathBlocks    int64
	InterpreterBlocks int64
	SimTicks          int64
}

func readSimCounters(d metrics) simCounters {
	return simCounters{
		DeviceCycles:      int64(d.sum("cobra_device_cycles_total")),
		BlocksOut:         int64(d.sum("cobra_device_blocks_out_total")),
		FastpathBlocks:    int64(d.sum("cobra_device_engine_blocks_total", label("engine", "fastpath"))),
		InterpreterBlocks: int64(d.sum("cobra_device_engine_blocks_total", label("engine", "interpreter"))),
		SimTicks:          int64(d.sum("cobra_sim_ticks_total")),
	}
}

func (c simCounters) cyclesPerBlock() float64 {
	if c.BlocksOut == 0 {
		return 0
	}
	return float64(c.DeviceCycles) / float64(c.BlocksOut)
}

// runConfig is one invocation's settings.
type runConfig struct {
	w       *workload
	seed    uint64
	seconds int
	trace   bool
	cobrad  string // the daemon binary
	outDir  string // where the traced run's JSON goes
	daemons int    // daemons set up, each running the fixed slice; the last runs the window
}

// daemonsPerRun is how many cobrad processes an untraced run sets up.
// setup_s and peak_rss_MiB are medians over them: one set-up takes tens
// of milliseconds and moves with the host's scheduling, and the
// high-water mark of a farm daemon depends on where its garbage
// collections fall.
const daemonsPerRun = 5

// result is one run's measurements.
type result struct {
	SetupS     []float64   // exec to warm, per daemon
	PeakRSSMiB []float64   // VmHWM after the fixed slice, per daemon
	Slice      simCounters // over the last daemon's slice
	SliceTally tally       // every daemon's slice
	// SliceReconfigures is the farm rebinds during the last slice. Each
	// one re-runs the configuration phase on the interpreter, so
	// sim_ticks repeat only when it is zero: how many rebinds happen is
	// up to the host's scheduling.
	SliceReconfigures int64
	Window            tally
	WindowS           float64
	LatNs             []int64 // every window latency, sorted
	Trace             *traceResult
	// traced is the traced window (traced runs only).
	traced *phase
}

// run measures the workload. Each of cfg.daemons cobrad processes is
// timed from exec to warm and then runs the fixed slice; the last one
// goes on to run the whole window in one stretch, which every other
// end-to-end metric comes from. A traced run also attributes the window
// to layers.
func run(cfg runConfig) (res *result, err error) {
	in := generate(cfg.w, cfg.seed)
	var warm [clients][]request
	for c := range warm {
		warm[c] = warmRequests(cfg.w, cfg.seed, c, in.tenants)
	}
	res = &result{}
	var d *daemon
	var ss []*session
	stop := func() error {
		closeSessions(ss)
		ss = nil
		err := d.stop()
		d = nil
		return err
	}
	defer func() {
		if d != nil {
			if serr := stop(); err == nil && serr != nil {
				res, err = nil, serr
			}
		}
	}()
	for i := 0; i < cfg.daemons; i++ {
		if d != nil {
			if err := stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(cfg.cobrad, cfg.w.flags); err != nil {
			return nil, err
		}
		if ss, err = dialSessions(d.addr, in.tenants); err != nil {
			return nil, err
		}
		if err := warmUp(ss, warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		if err := runSlice(d, ss, in, res); err != nil {
			return nil, err
		}
	}
	window := time.Duration(cfg.seconds) * time.Second
	if window == 0 { // a slice-only run
		return res, nil
	}

	var tr *traceCapture
	if cfg.trace {
		// The traced run measures an untraced half first, so the tracing
		// overhead is measured on the same daemon and inputs.
		window /= 2
		tr = &traceCapture{untraced: runPhase(ss, in.streams, window, false)}
		if tr.before, tr.varsBefore, tr.memBefore, err = scrapeAll(d); err != nil {
			return nil, err
		}
	}
	p := runPhase(ss, in.streams, window, cfg.trace)
	if tr != nil {
		if tr.after, tr.varsAfter, tr.memAfter, err = scrapeAll(d); err != nil {
			return nil, err
		}
	}
	res.Window, res.WindowS = p.total(), p.wall.Seconds()
	res.LatNs = p.latencies()
	slices.Sort(res.LatNs)

	if tr != nil {
		// Replays run after the daemon is gone, so they load nothing
		// but the benchmark's own process.
		if err := stop(); err != nil {
			return nil, err
		}
		res.traced = p
		if res.Trace, err = attribute(cfg, in, res, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runSlice runs the fixed slice on a warm daemon: one pass of each
// client's stream, the same requests on every run and every commit, so
// the simulated counters must repeat exactly.
func runSlice(d *daemon, ss []*session, in *inputs, res *result) error {
	before, err := d.scrape()
	if err != nil {
		return err
	}
	p := runPhase(ss, in.streams, 0, false)
	after, err := d.scrape()
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return err
	}
	sd := delta(before, after)
	res.Slice = readSimCounters(sd)
	res.SliceReconfigures = int64(sd.sum("cobra_farm_reconfigures_total"))
	res.SliceTally.add(p.total())
	res.PeakRSSMiB = append(res.PeakRSSMiB, rss)
	return nil
}

func scrapeAll(d *daemon) (metrics, json.RawMessage, memStats, error) {
	m, err := d.scrape()
	if err != nil {
		return nil, nil, memStats{}, err
	}
	raw, ms, err := d.debugVars()
	return m, raw, ms, err
}

// total is every measured request: the slice and the window.
func (r *result) total() tally {
	t := r.SliceTally
	t.add(r.Window)
	return t
}

func (r *result) errorRate() float64 {
	t := r.total()
	return float64(t.failed()) / float64(t.Attempted)
}

// endToEnd computes the eight end-to-end metrics (plus the ungated p99).
func (r *result) endToEnd() []metric {
	ms := func(q float64) float64 { return float64(percentile(r.LatNs, q)) / 1e6 }
	return []metric{
		{"req_per_s", float64(r.Window.OK) / r.WindowS, "req/s"},
		{"goodput_MBps", float64(r.Window.Bytes) / r.WindowS / 1e6, "MB/s"},
		{"lat_p50_ms", ms(0.5), "ms"},
		{"lat_p90_ms", ms(0.9), "ms"},
		{"error_rate", r.errorRate(), "fraction"},
		{"setup_s", quartiles(r.SetupS)[1], "s"},
		{"peak_rss_MiB", quartiles(r.PeakRSSMiB)[1], "MiB"},
		{"sim_cycles_per_block", r.Slice.cyclesPerBlock(), "cycles"},
		{"lat_p99_ms", ms(0.99), "ms"},
	}
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// percentile is the nearest-rank q-quantile of sorted ns samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
