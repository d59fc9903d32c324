package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"cobra/internal/bits"
	"cobra/internal/core"
	"cobra/internal/fastpath"
	"cobra/internal/program"
	"cobra/internal/serve"
	"cobra/internal/sim"
)

// traceCapture is what the traced run collects while the daemon runs:
// the untraced half-window (for the tracing overhead) and the /metrics
// and /debug/vars snapshots that bracket the traced window.
type traceCapture struct {
	untraced              *phase
	before, after         metrics
	varsBefore, varsAfter json.RawMessage
	memBefore, memAfter   memStats
}

// span is one replay record, parented to the client.request span of the
// request it replays ("c<client>/<seq>").
type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the start of the replays
	Dur    int64  `json:"dur_ns"`
}

// layerRow is one line of the attribution table: a layer's self time
// per request.
type layerRow struct {
	Layer  string  `json:"layer"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
	Source string  `json:"source"`
}

// traceResult is the traced run's output.
type traceResult struct {
	Layer       []metric
	Rows        []layerRow
	RequestMs   float64
	Overhead    [2]float64 // traced vs untraced: lat_p50_ms and req_per_s, as fractions
	Predictions []prediction
	File        string
}

// prediction is one layer prediction, written down before the benchmark
// was first measured; a failed one is reported, not tuned away.
type prediction struct {
	Text string `json:"text"`
	Held bool   `json:"held"`
	Got  string `json:"got"`
}

// Replay budgets. The per-request sample is capped at sampleBlocks
// blocks, a fraction of a second on the fastpath; the interpreter rate
// is measured on interpBlocks blocks per tenant, as the interpreter
// costs tens of µs per block.
const (
	sampleBlocks = 1 << 16
	interpBlocks = 1024
)

// replayReps is how often each layer replays one request; the median
// counts, so a GC cycle landing in one repetition does not skew it.
const replayReps = 3

// attribute turns the traced window into per-layer metrics: counters
// from the /metrics and /debug/vars deltas, and replays of the window's
// own requests into each module's public API, timed from outside.
func attribute(cfg runConfig, in *inputs, res *result, tr *traceCapture) (*traceResult, error) {
	w := cfg.w
	p := res.traced
	dm := delta(tr.before, tr.after)
	reqs := float64(p.total().Attempted)
	perReq := func(v float64) float64 { return v / reqs }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// The load generator's spans.
	var spans []reqSpan
	for i := range p.clients {
		spans = append(spans, p.clients[i].spans...)
	}
	var reqNs, cfgNs, cfgN float64
	for _, s := range spans {
		reqNs += float64(s.Dur)
		if s.Configure > 0 {
			cfgNs += float64(s.Configure)
			cfgN++
		}
	}
	requestMs := reqNs / float64(len(spans)) / 1e6
	configurePerReqMs := cfgNs / float64(len(spans)) / 1e6

	// Daemon-side counters over exactly the traced window.
	backendMs := ratio(dm.sum("cobra_serve_request_ns_sum", label("op", "encrypt"))+dm.sum("cobra_serve_request_ns_sum", label("op", "decrypt")),
		dm.sum("cobra_serve_request_ns_count", label("op", "encrypt"))+dm.sum("cobra_serve_request_ns_count", label("op", "decrypt"))) / 1e6
	overheadMs := requestMs - configurePerReqMs - backendMs
	workers := tr.after.sum("cobra_farm_workers")
	shardsPerReq := perReq(dm.sum("cobra_farm_shards_total"))
	reconfigs := dm.sum("cobra_farm_reconfigures_total")
	affinity := dm.sum("cobra_farm_affinity_hits_total")
	callNs := dm.sum("cobra_device_call_duration_ns_sum")
	calls := dm.sum("cobra_device_call_duration_ns_count")
	fpBlocks := dm.sum("cobra_device_engine_blocks_total", label("engine", "fastpath"))
	inBlocks := dm.sum("cobra_device_engine_blocks_total", label("engine", "interpreter"))
	hits, misses := tr.after.sum("cobra_serve_backend_hits_total"), tr.after.sum("cobra_serve_backend_misses_total")
	callMs := func(mode string) float64 {
		return ratio(dm.sum("cobra_device_call_duration_ns_sum", label("mode", mode)),
			dm.sum("cobra_device_call_duration_ns_count", label("mode", mode))) / 1e6
	}

	rp, err := replay(cfg, in, p)
	if err != nil {
		return nil, err
	}

	t := &traceResult{RequestMs: requestMs}
	t.Layer = []metric{
		{"client.request_ms", requestMs, "ms"},
		{"client.configure_ms", ratio(cfgNs, cfgN) / 1e6, "ms"},
		{"serve.backend_call_ms", backendMs, "ms"},
		{"serve.overhead_ms", overheadMs, "ms"},
		{"serve.codec_us", rp.codecUs, "us"},
		{"serve.sheds_per_kreq", perReq(dm.sum("cobra_serve_sheds_total")) * 1000, "count"},
		{"serve.backend_hit_ratio", ratio(hits, hits+misses), "fraction"},
		{"net.echo_us", rp.echoUs, "us"},
		{"farm.shards_per_req", shardsPerReq, "count"},
		{"farm.queue_wait_ms", ratio(dm.sum("cobra_farm_queue_wait_ns_sum"), dm.sum("cobra_farm_queue_wait_ns_count")) / 1e6, "ms"},
		{"farm.worker_busy_frac", ratio(dm.sum("cobra_farm_worker_busy_ns_total"), workers*float64(p.wall.Nanoseconds())), "fraction"},
		{"farm.reconfigures_per_req", perReq(reconfigs), "count"},
		{"farm.affinity_hit_ratio", ratio(affinity, affinity+reconfigs), "fraction"},
		{"farm.cross_steals_per_req", perReq(dm.sum("cobra_farm_steals_total", label("kind", "cross"))), "count"},
		{"core.call_ms", ratio(callNs, calls) / 1e6, "ms"},
		{"core.call_ms.ctr", callMs("ctr"), "ms"},
		{"core.call_ms.ecb", callMs("ecb"), "ms"},
		{"core.call_ms.cbc", callMs("cbc"), "ms"},
		{"core.call_ms.decrypt_cbc", callMs("decrypt_cbc"), "ms"},
		{"core.calls_per_req", perReq(calls), "count"},
		{"core.fastpath_block_frac", ratio(fpBlocks, fpBlocks+inBlocks), "fraction"},
		{"core.compiles_per_req", perReq(dm.sum("cobra_device_fastpath_compiles_total")), "count"},
		{"core.configure_ms", rp.configureMs, "ms"},
		{"program.build_ms", rp.buildMs, "ms"},
		{"fastpath.compile_ms", rp.compileMs, "ms"},
		{"fastpath.stream_ns_per_block", rp.streamNsPerBlock, "ns"},
		{"fastpath.call1_us", rp.call1Us, "us"},
		{"fastpath.ns_per_sim_cycle", rp.fastNsPerCycle, "ns"},
		{"sim.ns_per_block", rp.simNsPerBlock, "ns"},
		{"sim.ns_per_cycle", rp.simNsPerCycle, "ns"},
		{"sim.ticks_per_req", perReq(dm.sum("cobra_sim_ticks_total")), "count"},
		{"runtime.alloc_bytes_per_req", perReq(float64(tr.memAfter.TotalAlloc - tr.memBefore.TotalAlloc)), "bytes"},
		{"runtime.gc_per_kreq", perReq(float64(tr.memAfter.NumGC-tr.memBefore.NumGC)) * 1000, "count"},
	}

	// Self time per request along the blocking path. Work that ran on
	// both workers side by side counts once: per-request worker and
	// device time are divided by the shards that ran in parallel. The
	// replays on the same requests split device time into the core
	// layer's own work and the engine's.
	par := 1.0
	if workers > 0 {
		par = min(max(shardsPerReq, 1), workers)
	}
	deviceMs := perReq(callNs) / par / 1e6
	busyMs := max(perReq(dm.sum("cobra_farm_worker_busy_ns_total"))/par/1e6, deviceMs)
	waitName, waitSrc := "farm.wait", "serve.backend_call − worker busy time"
	if workers == 0 {
		waitName, waitSrc = "dispatch", "serve.backend_call − device calls"
	}
	t.Rows = []layerRow{
		{"client.configure", configurePerReqMs, 0, "client.configure spans"},
		{"serve+net", overheadMs, 0, "client.request − configure − serve.backend_call"},
		{waitName, backendMs - busyMs, 0, waitSrc},
		{"farm.worker", busyMs - deviceMs, 0, "worker busy time − device calls (rebinds: Configure + Compile)"},
		{"core", deviceMs * rp.coreSelfFrac, 0, "device calls × replayed core self share"},
		{"fastpath", deviceMs * rp.fastFrac, 0, "device calls × replayed Exec.EncryptInto share"},
		{"sim", deviceMs * rp.simFrac, 0, "device calls × replayed program.RunBytes share"},
		{"runtime (GC pause)", perReq(float64(tr.memAfter.PauseTotalNs-tr.memBefore.PauseTotalNs)) / 1e6, 0, "memstats.PauseTotalNs; overlaps the rows above"},
	}
	for i := range t.Rows {
		t.Rows[i].Share = t.Rows[i].SelfMs / requestMs
	}

	untr := tracedE2E(tr.untraced)
	trd := tracedE2E(p)
	t.Overhead = [2]float64{trd[0]/untr[0] - 1, trd[1]/untr[1] - 1}
	t.Predictions = ownPredictions(w.name, t)

	t.File = filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
	if err := writeTraceFile(t.File, cfg, res, tr, spans, rp.spans, t); err != nil {
		return nil, err
	}
	return t, nil
}

// tracedE2E returns a phase's lat_p50_ms and req_per_s.
func tracedE2E(p *phase) [2]float64 {
	lat := p.latencies()
	slices.Sort(lat)
	return [2]float64{float64(percentile(lat, 0.5)) / 1e6, float64(p.total().OK) / p.wall.Seconds()}
}

func (t *traceResult) get(name string) float64 {
	for _, m := range t.Layer {
		if m.name == name {
			return m.value
		}
	}
	panic("no layer metric " + name)
}

func (t *traceResult) row(layer string) layerRow {
	for _, r := range t.Rows {
		if r.Layer == layer {
			return r
		}
	}
	return layerRow{}
}

// ticksNearZero is the sim.ticks_per_req below which a workload counts as
// never reaching the interpreter.
const ticksNearZero = 1.0

// ownPredictions checks the layer predictions a single workload can
// settle on its own; traceAll checks the cross-workload ones.
func ownPredictions(name string, t *traceResult) []prediction {
	var ps []prediction
	rec := t.get("farm.reconfigures_per_req")
	if name == "multi-tenant" {
		ps = append(ps, prediction{"farm.reconfigures_per_req > 0 on multi-tenant", rec > 0, fmt.Sprintf("%.4g", rec)})
	} else {
		ps = append(ps, prediction{"farm.reconfigures_per_req = 0 on " + name, rec == 0, fmt.Sprintf("%.4g", rec)})
	}
	if name == "small-ctr" || name == "bulk" {
		tk := t.get("sim.ticks_per_req")
		ps = append(ps, prediction{"sim.ticks_per_req ≈ 0 on " + name, tk < ticksNearZero, fmt.Sprintf("%.4g", tk)})
	}
	if name == "bulk" {
		sh := t.row("serve+net").Share
		ps = append(ps, prediction{"serve.overhead_ms < 5% of request time on bulk", sh < 0.05, fmt.Sprintf("%.2f%%", 100*sh)})
		fp := t.row("fastpath").Share
		ps = append(ps, prediction{"fastpath streaming > 50% of bulk's request time", fp > 0.5, fmt.Sprintf("%.1f%%", 100*fp)})
	}
	return ps
}

// replayResult is what the replays measured.
type replayResult struct {
	spans                        []span
	codecUs, echoUs              float64
	configureMs, buildMs         float64
	compileMs                    float64
	streamNsPerBlock, call1Us    float64
	fastNsPerCycle               float64
	simNsPerBlock, simNsPerCycle float64
	// Shares of the replayed device-call time.
	coreSelfFrac, fastFrac, simFrac float64
}

// replayTenant is a tenant rebuilt in the benchmark process: a
// standalone device plus the programs and engines underneath it.
type replayTenant struct {
	dev  *core.Device
	enc  *program.Program
	exec *fastpath.Exec // nil when the program does not trace-compile
	encM *sim.Machine
	dec  *program.Program
	decM *sim.Machine
}

// replay re-runs a seeded sample of the traced window's requests on
// standalone copies of each layer and times each layer from outside.
func replay(cfg runConfig, in *inputs, p *phase) (*replayResult, error) {
	// The traced window left garbage behind; collect it now rather than
	// in the middle of a timed replay.
	runtime.GC()
	rr := &replayResult{}
	t0 := time.Now()
	add := func(id, parent, name string, start time.Time, d time.Duration) {
		rr.spans = append(rr.spans, span{ID: id, Parent: parent, Name: name,
			Start: start.Sub(t0).Nanoseconds(), Dur: d.Nanoseconds()})
	}

	// Set-up layers, per tenant: Build*, Program.Compile, core.Configure.
	// program.build_ms counts the decrypt program only where the
	// workload decrypts; the interpreter rate below always uses it.
	decrypts := false
	for c := range in.streams {
		for _, r := range in.streams[c] {
			decrypts = decrypts || r.op == serve.FrameDecrypt
		}
	}
	tenants := make([]*replayTenant, len(in.tenants))
	var build, compile, configure []float64
	for i, tn := range in.tenants {
		rt := &replayTenant{}
		b, err := timeMedian(3, func() (err error) { rt.enc, err = buildProgram(tn, false); return err })
		if err != nil {
			return nil, err
		}
		bd, err := timeMedian(3, func() (err error) { rt.dec, err = buildProgram(tn, true); return err })
		if err != nil {
			return nil, err
		}
		if decrypts {
			b += bd
		}
		// A refused compile is not a failure: the device interprets, and
		// so does the replay.
		c, _ := timeMedian(3, func() error { rt.exec, _ = rt.enc.Compile(); return nil })
		k, err := timeMedian(3, func() (err error) { rt.dev, err = core.Configure(tn.alg, tn.key, core.Config{}); return err })
		if err != nil {
			return nil, err
		}
		if rt.encM, err = loadedMachine(rt.enc); err != nil {
			return nil, err
		}
		if rt.decM, err = loadedMachine(rt.dec); err != nil {
			return nil, err
		}
		build, compile, configure = append(build, b), append(compile, c), append(configure, k)
		tenants[i] = rt
	}
	rr.buildMs, rr.compileMs, rr.configureMs = mean(build)*1e3, mean(compile)*1e3, mean(configure)*1e3

	// Per-request replays on a seeded sample of the traced window.
	sample := sampleSpans(cfg, p)
	ctx := context.Background()
	var codecNs, coreNs, fastNs, simNs float64
	for _, s := range sample {
		r := &in.streams[s.Client][s.Seq%len(in.streams[s.Client])]
		rt := tenants[r.tenant]
		id := fmt.Sprintf("c%d/%d", s.Client, s.Seq)

		st := time.Now()
		if err := codecRoundTrip(r); err != nil {
			return nil, err
		}
		d := time.Since(st)
		codecNs += float64(d)
		add(id+"/serve.codec", id, "serve.codec", st, d)

		// Core and engine alternate, so drift in the host's speed hits
		// both alike.
		dst := make([]byte, len(r.data))
		var coreDs, engDs []float64
		var engine string
		coreStart := time.Now()
		for range replayReps {
			st := time.Now()
			if err := deviceCall(ctx, rt.dev, r, dst); err != nil {
				return nil, err
			}
			coreDs = append(coreDs, float64(time.Since(st)))
			if !bytes.Equal(dst, r.want) {
				return nil, fmt.Errorf("replay of %s on a standalone device differs from the host reference", id)
			}
			var ed time.Duration
			var err error
			if engine, ed, err = engineCall(rt, r); err != nil {
				return nil, err
			}
			engDs = append(engDs, float64(ed))
		}
		cd, ed := quartiles(coreDs)[1], quartiles(engDs)[1]
		coreNs += cd
		add(id+"/core", id, "core."+r.class(), coreStart, time.Duration(cd))
		add(id+"/core/"+engine, id+"/core", engine, coreStart, time.Duration(ed))
		if engine == "fastpath" {
			fastNs += ed
		} else {
			simNs += ed
		}
	}
	if coreNs > 0 {
		// The engine replay can read longer than the device call that
		// contains it when the host's speed moves between the two; its
		// share is then capped at the whole call.
		whole := max(coreNs, fastNs+simNs)
		rr.fastFrac, rr.simFrac = fastNs/whole, simNs/whole
		rr.coreSelfFrac = 1 - rr.fastFrac - rr.simFrac
	}
	rr.codecUs = codecNs / float64(len(sample)) / 1e3
	var err error
	if rr.echoUs, err = echoReplay(sample, in); err != nil {
		return nil, err
	}

	// Engine rates on the workload's tenants.
	var stream, call1, fastCyc, simBlk, simCyc []float64
	sizes := sampleSizes(cfg, in)
	for _, rt := range tenants {
		if rt.exec != nil {
			ns, st, err := timeExec(rt.exec, 4096)
			if err != nil {
				return nil, err
			}
			stream = append(stream, ns/4096)
			fastCyc = append(fastCyc, ns/float64(st.Cycles))
			one, err := timeMedian(200, func() error { _, _, err := timeExec(rt.exec, 1); return err })
			if err != nil {
				return nil, err
			}
			call1 = append(call1, one*1e6)
		}
		// The interpreter runs the decrypt program, the only one the
		// daemon interprets; a workload that never decrypts still gets
		// the rate, on its own packet sizes, as a reference.
		var ns, blocks, cycles float64
		for _, n := range sizes {
			src := make([]byte, n)
			st := time.Now()
			stats, err := program.RunBytes(rt.decM, rt.dec, src, src, program.Opts{})
			if err != nil {
				return nil, err
			}
			ns += float64(time.Since(st))
			blocks += float64(n / 16)
			cycles += float64(stats.Cycles)
		}
		simBlk = append(simBlk, ns/blocks)
		simCyc = append(simCyc, ns/cycles)
	}
	rr.streamNsPerBlock, rr.call1Us, rr.fastNsPerCycle = mean(stream), mean(call1), mean(fastCyc)
	rr.simNsPerBlock, rr.simNsPerCycle = mean(simBlk), mean(simCyc)
	return rr, nil
}

func buildProgram(tn tenant, decrypt bool) (*program.Program, error) {
	total, err := tn.alg.TotalRounds()
	if err != nil {
		return nil, err
	}
	switch {
	case tn.alg == core.Rijndael && !decrypt:
		return program.BuildRijndael(tn.key, total)
	case tn.alg == core.Rijndael:
		return program.BuildRijndaelDecrypt(tn.key, total)
	case tn.alg == core.RC6 && !decrypt:
		return program.BuildRC6(tn.key, total, total)
	case tn.alg == core.RC6:
		return program.BuildRC6Decrypt(tn.key, total, total)
	}
	return nil, fmt.Errorf("no replay program for %s", tn.alg)
}

// codecRoundTrip runs the serve codec on one request and its response,
// in memory: what client and server spend encoding and decoding frames.
func codecRoundTrip(r *request) error {
	var buf bytes.Buffer
	req := serve.CipherReq{Mode: r.mode, IV: r.iv, Data: r.data}
	if err := serve.WriteFrame(&buf, serve.Frame{Type: r.op, Payload: req.Encode()}); err != nil {
		return err
	}
	f, err := serve.ReadFrame(&buf, serve.AbsMaxFrame)
	if err != nil {
		return err
	}
	if _, err := serve.DecodeCipherReq(f.Payload); err != nil {
		return err
	}
	if err := serve.WriteFrame(&buf, serve.Frame{Type: r.op, Payload: r.want}); err != nil {
		return err
	}
	_, err = serve.ReadFrame(&buf, serve.AbsMaxFrame)
	return err
}

// deviceCall is the request on a standalone device's mode method.
func deviceCall(ctx context.Context, d *core.Device, r *request, dst []byte) error {
	var err error
	switch {
	case r.op == serve.FrameDecrypt && r.mode == serve.ModeCBC:
		_, err = d.DecryptCBCInto(ctx, dst, r.iv, r.data)
	case r.op == serve.FrameDecrypt && r.mode == serve.ModeECB:
		_, err = d.DecryptECBInto(ctx, dst, r.data)
	case r.op == serve.FrameDecrypt:
		_, err = d.EncryptCTRInto(ctx, dst, r.iv, r.data)
	case r.mode == serve.ModeECB:
		_, err = d.EncryptECBInto(ctx, dst, r.data)
	case r.mode == serve.ModeCBC:
		_, err = d.EncryptCBCInto(ctx, dst, r.iv, r.data)
	default:
		_, err = d.EncryptCTRInto(ctx, dst, r.iv, r.data)
	}
	return err
}

// engineCall runs the engine work of one request the way the device
// routes it — the fastpath executor for encryption (block by block for
// CBC's feedback chain), the interpreter for ECB/CBC decryption — and
// returns the engine and its time.
func engineCall(rt *replayTenant, r *request) (string, time.Duration, error) {
	if r.op == serve.FrameDecrypt && r.mode != serve.ModeCTR {
		dst := make([]byte, len(r.data))
		st := time.Now()
		_, err := program.RunBytes(rt.decM, rt.dec, dst, r.data, program.Opts{})
		return "sim", time.Since(st), err
	}
	n := r.blocks()
	blocks := make([]bits.Block128, n)
	if r.mode == serve.ModeCTR {
		var c [16]byte
		copy(c[:], r.iv)
		for i := range blocks {
			blocks[i] = bits.LoadBlock128(c[:])
			addOne(&c)
		}
	} else {
		for i := range blocks {
			blocks[i] = bits.LoadBlock128(r.data[16*i:])
		}
	}
	engine := "fastpath"
	run := func(dst, src []bits.Block128) error {
		if rt.exec != nil {
			_, err := rt.exec.EncryptInto(dst, src)
			return err
		}
		engine = "sim"
		_, err := program.Run(rt.encM, rt.enc, dst, src, program.Opts{})
		return err
	}
	st := time.Now()
	var err error
	if r.mode == serve.ModeCBC {
		for i := range blocks {
			if err = run(blocks[i:i+1], blocks[i:i+1]); err != nil {
				break
			}
		}
	} else {
		err = run(blocks, blocks)
	}
	return engine, time.Since(st), err
}

// timeExec times one EncryptInto of n blocks.
func timeExec(ex *fastpath.Exec, n int) (float64, sim.Stats, error) {
	blocks := make([]bits.Block128, n)
	st := time.Now()
	stats, err := ex.EncryptInto(blocks, blocks)
	return float64(time.Since(st)), stats, err
}

// timeMedian runs f n times and returns its median duration in seconds.
func timeMedian(n int, f func() error) (float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		st := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(st).Seconds())
	}
	return quartiles(ds)[1], nil
}

func loadedMachine(p *program.Program) (*sim.Machine, error) {
	m, err := program.NewMachine(p)
	if err != nil {
		return nil, err
	}
	return m, program.Load(m, p)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// sampleSpans draws the replayed requests: a seeded sample of the traced
// window, at most 256 requests and sampleBlocks blocks.
func sampleSpans(cfg runConfig, p *phase) []reqSpan {
	var all []reqSpan
	for i := range p.clients {
		all = append(all, p.clients[i].spans...)
	}
	rng := rngFor(cfg.w, cfg.seed, "replay")
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	var out []reqSpan
	blocks := 0
	for _, s := range all {
		b := (s.Bytes + 15) / 16
		if len(out) == 256 || len(out) > 0 && blocks+b > sampleBlocks {
			break
		}
		out = append(out, s)
		blocks += b
	}
	return out
}

// sampleSizes draws block-aligned packet sizes from the workload's
// streams for the interpreter replay, within interpBlocks.
func sampleSizes(cfg runConfig, in *inputs) []int {
	rng := rngFor(cfg.w, cfg.seed, "replay-sizes")
	var sizes []int
	blocks := 0
	for range 64 {
		reqs := in.streams[rng.IntN(clients)]
		n := reqs[rng.IntN(len(reqs))].blocks()
		if len(sizes) > 0 && blocks+n > interpBlocks {
			break
		}
		sizes = append(sizes, 16*n)
		blocks += n
	}
	return sizes
}

// echoReplay sends frames the size of the sampled requests through a
// bare ReadFrame/WriteFrame echo over loopback: the transport floor
// under serve.overhead_ms that no change to serve removes.
func echoReplay(sample []reqSpan, in *inputs) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		for {
			f, err := serve.ReadFrame(br, serve.AbsMaxFrame)
			if err == io.EOF {
				done <- nil
				return
			}
			if err == nil {
				err = serve.WriteFrame(bw, f)
			}
			if err == nil {
				err = bw.Flush()
			}
			if err != nil {
				done <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	var total time.Duration
	for _, s := range sample {
		r := &in.streams[s.Client][s.Seq%len(in.streams[s.Client])]
		f := serve.Frame{Type: r.op, Payload: serve.CipherReq{Mode: r.mode, IV: r.iv, Data: r.data}.Encode()}
		st := time.Now()
		if err = serve.WriteFrame(bw, f); err == nil {
			if err = bw.Flush(); err == nil {
				_, err = serve.ReadFrame(br, serve.AbsMaxFrame)
			}
		}
		total += time.Since(st)
		if err != nil {
			break
		}
	}
	conn.Close()
	if serr := <-done; err == nil {
		err = serr
	}
	return float64(total.Nanoseconds()) / float64(len(sample)) / 1e3, err
}

// traceFile is the JSON document a traced run writes.
type traceFile struct {
	Workload      string             `json:"workload"`
	Seed          uint64             `json:"seed"`
	Flags         []string           `json:"cobrad_flags"`
	WindowS       float64            `json:"window_s"`
	RequestSpans  []reqSpan          `json:"request_spans"`
	ReplaySpans   []span             `json:"replay_spans"`
	MetricsBefore metrics            `json:"metrics_before"`
	MetricsAfter  metrics            `json:"metrics_after"`
	VarsBefore    json.RawMessage    `json:"debug_vars_before"`
	VarsAfter     json.RawMessage    `json:"debug_vars_after"`
	Layers        []layerRow         `json:"layers"`
	PerLayer      map[string]float64 `json:"per_layer"`
	Overhead      map[string]float64 `json:"tracing_overhead"`
	Predictions   []prediction       `json:"predictions"`
}

func writeTraceFile(path string, cfg runConfig, res *result, tr *traceCapture, spans []reqSpan, rs []span, t *traceResult) error {
	doc := traceFile{Workload: cfg.w.name, Seed: cfg.seed, Flags: cfg.w.flags, WindowS: res.traced.wall.Seconds(),
		RequestSpans: spans, ReplaySpans: rs, MetricsBefore: tr.before, MetricsAfter: tr.after,
		VarsBefore: tr.varsBefore, VarsAfter: tr.varsAfter, Layers: t.Rows, PerLayer: map[string]float64{},
		Overhead:    map[string]float64{"lat_p50_ms": t.Overhead[0], "req_per_s": t.Overhead[1]},
		Predictions: t.Predictions}
	for _, m := range t.Layer {
		doc.PerLayer[m.name] = m.value
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printTrace prints the attribution table and the per-layer metrics.
func printTrace(out io.Writer, t *traceResult) {
	fmt.Fprintf(out, "  layer attribution (traced window, per request; client.request = %.4g ms):\n", t.RequestMs)
	for _, r := range t.Rows {
		fmt.Fprintf(out, "    %-20s %10.4g ms %7.1f%%   %s\n", r.Layer, r.SelfMs, 100*r.Share, r.Source)
	}
	fmt.Fprintf(out, "  tracing overhead: lat_p50_ms %+.1f%%, req_per_s %+.1f%% (traced half vs untraced half)\n",
		100*t.Overhead[0], 100*t.Overhead[1])
	fmt.Fprintln(out, "  per-layer metrics:")
	for _, m := range t.Layer {
		fmt.Fprintf(out, "    %-30s %12.5g %s\n", m.name, m.value, m.unit)
	}
	for _, p := range t.Predictions {
		fmt.Fprintf(out, "  prediction %-5s %s (got %s)\n", verdict(p.Held), p.Text, p.Got)
	}
	fmt.Fprintf(out, "  spans and snapshots: %s\n", t.File)
}

func verdict(held bool) string {
	if held {
		return "held"
	}
	return "FAILED"
}

// traceAll makes the traced run of every workload and then checks the
// predictions that compare workloads.
func traceAll(seed uint64, seconds int, cobrad, outDir string) error {
	got := map[string]*traceResult{}
	for _, w := range workloads {
		cfg := runConfig{w: w, seed: seed, seconds: seconds, trace: true, cobrad: cobrad, outDir: outDir, daemons: 1}
		res, err := run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		report(os.Stdout, cfg, res)
		if res.total().failed() > 0 {
			return fmt.Errorf("%s: %d requests failed", w.name, res.total().failed())
		}
		got[w.name] = res.Trace
	}
	var ps []prediction
	share := func(w string) float64 { return got[w].row("serve+net").Share }
	largest := func(w string, v func(string) float64) bool {
		for _, o := range workloads {
			if o.name != w && v(o.name) >= v(w) {
				return false
			}
		}
		return true
	}
	ticks := func(w string) float64 { return got[w].get("sim.ticks_per_req") }
	ps = append(ps,
		prediction{"serve.overhead_ms share largest on small-ctr", largest("small-ctr", share),
			fmt.Sprintf("small-ctr %.1f%%, bulk %.1f%%, multi-tenant %.1f%%, cbc-duplex %.1f%%",
				100*share("small-ctr"), 100*share("bulk"), 100*share("multi-tenant"), 100*share("cbc-duplex"))},
		prediction{"sim.ticks_per_req largest on cbc-duplex", largest("cbc-duplex", ticks),
			fmt.Sprintf("small-ctr %.4g, bulk %.4g, multi-tenant %.4g, cbc-duplex %.4g",
				ticks("small-ctr"), ticks("bulk"), ticks("multi-tenant"), ticks("cbc-duplex"))})
	fmt.Println("layer predictions:")
	for _, w := range workloads {
		ps = append(ps, got[w.name].Predictions...)
	}
	for _, p := range ps {
		fmt.Printf("  %-6s %s (got %s)\n", verdict(p.Held), p.Text, p.Got)
	}
	return nil
}
