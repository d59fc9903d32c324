// Command cobradbench is the end-to-end benchmark of cobrad, the COBRA
// cipher daemon. It starts the checkout's own cobrad as a child process
// with a workload's flags, drives it over loopback from this one process
// with two connections in a closed loop (each client sends its next
// request only after the previous response), checks every response
// against the host reference ciphers of internal/cipher, and prints the
// end-to-end metrics. A traced run attributes request time to the
// modules serve/client, serve, farm, core, program, fastpath, sim and
// the Go runtime, from outside cobrad.
//
// # Running
//
// From the repository root:
//
//	bash cobradbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
//	bash cobradbench/run.sh --workload bulk --trace 1        # per-layer metrics
//	bash cobradbench/run.sh --workload all --trace 1         # every workload, then the layer predictions
//	bash cobradbench/run.sh --workload bulk --repeat 10 --sets 2   # repeat and summarize
//	(cd cobradbench && go test ./...)                        # stream and simulated-counter checks
//
// run.sh builds cobrad and this program into .bench_build/cobradbench
// (Go caches included) and passes its arguments on. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}, with the end-to-end metrics below (the per-layer metrics
// with --trace 1). Any failed request makes the exit status 1.
//
// Inputs come from the seed: each client's request stream is a pure
// function of (workload, seed, client index), and cobrad receives only
// the generated requests. Seed 1 is the default for development; seed
// 20261017 is held out for checking a claimed gain on inputs it was not
// tuned on. Request sizes are stratified over each workload's range,
// separately for each class of request (mode on bulk, tenant on
// multi-tenant, direction on cbc-duplex), and multi-tenant sends each
// tenant a third of its requests, so every seed sends the same mix and
// only order, keys and contents change. Left to the seed, a tenant's
// share of multi-tenant's requests ranged from a fifth to nearly a half,
// and of ten seeds the one that sent RC6 the fewest ran fastest in each
// of two sets of runs.
//
// # Workloads
//
// Two clients, one per CPU of the two-vCPU host this was sized on, each
// a caller waiting on its reply: a closed loop. An open-loop rate sweep
// is left out because with two connections its queue would build in the
// load generator, not in cobrad.
//
//   - small-ctr (cobrad -backend farm -workers 2): one Rijndael tenant
//     (full unroll); CTR requests of 1-64 B, partial blocks included.
//     Per-request fixed costs dominate: framing, loopback, the session
//     handoff, the farm splitting even 2-block messages over both
//     workers, and one pipeline fill per shard. bulk bypasses all of
//     them.
//   - bulk (cobrad -backend device): client 0 on a Rijndael tenant,
//     client 1 on an RC6 tenant (full unroll, one device each); CTR and
//     ECB encryption of 16-64 KiB, alternating. The fastpath executor's
//     per-block streaming cost dominates, over two op mixes: T-table
//     lookups and multiply/rotate ARX. No farm, no reconfiguration, a
//     negligible serve share.
//   - multi-tenant (cobrad -backend farm -workers 2): the
//     BENCH_farm.json tenant set (Rijndael key A, Rijndael key B =
//     A^0x5A, RC6 key A^0xA5, full unroll) drawn per request, each a
//     third of the requests, two in three consecutive requests
//     switching tenant; 1-4 KiB CTR; a client
//     re-CONFIGUREs (a backend-LRU hit) when the tenant changes. Three
//     (program, key) pairs contend for two workers, and each worker
//     rebind re-runs core.Configure and Program.Compile. The only
//     workload where the scheduler and the reconfiguration path work.
//   - cbc-duplex (cobrad -backend farm -workers 2): one Rijndael tenant;
//     256 B-1.5 KiB packets, CBC encryption and decryption alternating.
//     CBC encryption is a chain of 1-block device calls (the paper's
//     Table 1 feedback penalty: 12 simulated cycles per block against
//     about 1 when streaming), and ECB/CBC decryption runs only on the
//     cycle-accurate interpreter, so this is the workload that measures
//     sim.
//
// BENCHMARK.json gates on bulk, multi-tenant and cbc-duplex. small-ctr
// runs and traces like the others, and the layer predictions use it, but
// it is not gated: with wakeups between processes on every request, its
// throughput moved by 31% (interquartile range over the median) across
// five consecutive 20 s runs on the two-vCPU VM it was sized on, wider
// than the widest bound a gated metric may have.
//
// # Run structure
//
// A run starts cobrad five times. Each daemon is timed from exec
// through warm-up (listening, every tenant CONFIGUREd, each request class
// served twice per client so worker devices and decrypt datapaths are
// built) and then runs the fixed slice: one pass of each client's
// stream, the same requests on every run and every commit, over which
// the simulated counters are read, so they repeat exactly. setup_s and
// peak_rss_MiB are the medians over the five: one set-up takes tens of
// milliseconds and moves with the host's scheduling, and a farm daemon's
// high-water mark depends on where its garbage collections fall. The
// first four daemons are then stopped; the fifth runs the whole
// --seconds window in one stretch, which every other end-to-end metric
// comes from.
//
// One long window rather than several short ones on fresh daemons:
// splitting the window over ten daemons and taking medians was no
// steadier in alternating runs (req/s spread 12.6% against 8.7% for one
// window on bulk, 14.8% against 16.1% on multi-tenant, five pairs each),
// and a warm daemon shows no consistent ramp (in three 20 s bulk windows
// the first two seconds ran 14% slower, 23% faster and 10% slower than
// the window as a whole). What moves is the host: a two-thread loop of
// Exec.EncryptInto with no daemon and no sockets ran between 410 and 680
// thousand Rijndael blocks per second in one-second samples on the
// two-vCPU VM the benchmark was sized on.
//
// # End-to-end metrics
//
//	name                  unit      better  source
//	req_per_s             req/s     higher  verified responses ÷ wall time of the window
//	goodput_MBps          MB/s      higher  verified request payload bytes ÷ wall time
//	lat_p50_ms            ms        lower   client-side send-to-response median, including the
//	                                        re-CONFIGURE round trip when a tenant switch precedes
//	lat_p90_ms            ms        lower   90th percentile of the same
//	error_rate            fraction  lower   (ERROR + BUSY + transport failures + responses that
//	                                        differ from the reference) ÷ requests attempted
//	setup_s               s         lower   cobrad exec to the end of warm-up
//	peak_rss_MiB          MiB       lower   cobrad's VmHWM (/proc/<pid>/status) after the fixed
//	                                        slice: the daemon only, never the load generator
//	sim_cycles_per_block  cycles    lower   Σcobra_device_cycles_total ÷ Σcobra_device_blocks_out_total
//	                                        over the fixed slice, from cobrad's /metrics: the
//	                                        paper's simulated metric; a host-only change must
//	                                        leave it identical
//
// Every run also prints lat_p99_ms with its sample count; p99 is not
// gated, as it moves by up to a factor of two between identical runs,
// far more than p50 and p90. error_rate is printed and
// carried on the result line as "failed": it is zero on a correct run,
// and a bound relative to zero means nothing. Every run prints the raw
// counters behind sim_cycles_per_block: device cycles, blocks out,
// blocks by engine and sim ticks, with the farm rebinds of the slice.
//
// # Traced run
//
// --trace 1 uses one daemon and splits its window in two halves with the
// same inputs: untraced, then traced. The traced half keeps a
// client.request span per request (ID: client index and sequence
// number) with a client.configure child when a re-CONFIGURE preceded
// it, and scrapes /metrics and /debug/vars just before and after, which
// gives the daemon's counters for exactly that half. Once cobrad has
// exited, a seeded sample of the half's requests is replayed into each
// module's public API in this process (three times per layer, keeping
// the median), each replay span parented to the request it replays: the serve codec, core.Configure and the Device
// mode methods on a standalone device, Build*, Program.Compile,
// Exec.EncryptInto and program.RunBytes. A layer's self time is its span
// minus the next layer's on the same input. The spans, the snapshots and
// the metrics go to .bench_build/cobradbench/trace-<workload>-seed<n>.json;
// the run prints the layer table, the per-layer metrics, the tracing
// overhead (traced half against untraced half) and the layer
// predictions below, each as held or FAILED.
//
// # Per-layer metrics and the end-to-end metric each should move
//
//	layer         metric                        source                                  moves           on (not on)
//	serve/client  client.request_ms             client.request spans                    lat_p50_ms      all
//	serve/client  client.configure_ms           client.configure spans                  lat_p50_ms      multi-tenant
//	serve         serve.backend_call_ms         cobra_serve_request_ns sum/count        lat_p50_ms      all
//	serve         serve.overhead_ms             request span − configure − backend call lat_p50_ms,     small-ctr (not bulk)
//	                                                                                    req_per_s
//	serve         serve.codec_us                replay: CipherReq.Encode, WriteFrame,   req_per_s       small-ctr (not bulk)
//	                                            ReadFrame, DecodeCipherReq, both ways
//	serve         serve.sheds_per_kreq          cobra_serve_sheds_total                 error_rate      all (0 with two clients)
//	serve         serve.backend_hit_ratio       cobra_serve_backend_{hits,misses}_total setup_s,        multi-tenant
//	                                            (since cobrad start)                    lat_p50_ms
//	net           net.echo_us                   replay: same-size frames echoed by a    none: the floor under serve.overhead_ms
//	                                            bare ReadFrame/WriteFrame loop
//	farm          farm.shards_per_req           cobra_farm_shards_total                 lat_p50_ms      small-ctr, cbc-duplex
//	farm          farm.queue_wait_ms            cobra_farm_queue_wait_ns (placement)    lat_p90_ms      multi-tenant, cbc-duplex
//	farm          farm.worker_busy_frac         Σcobra_farm_worker_busy_ns_total ÷      req_per_s       farm workloads
//	                                            (workers × window)
//	farm          farm.reconfigures_per_req     cobra_farm_reconfigures_total           req_per_s,      multi-tenant only (0 elsewhere)
//	                                                                                    lat_p50_ms, peak_rss_MiB
//	farm          farm.affinity_hit_ratio       affinity hits ÷ (hits + reconfigures)   req_per_s       multi-tenant
//	farm          farm.cross_steals_per_req     cobra_farm_steals_total{kind="cross"}   req_per_s       multi-tenant
//	core          core.call_ms[.mode]           cobra_device_call_duration_ns           lat_p50_ms      all
//	core          core.calls_per_req            device call count                       lat_p50_ms      small-ctr, cbc-duplex
//	core          core.fastpath_block_frac      cobra_device_engine_blocks_total        goodput_MBps    bulk
//	core          core.compiles_per_req         cobra_device_fastpath_compiles_total    req_per_s       multi-tenant (0 elsewhere)
//	core          core.configure_ms             replay: core.Configure per tenant       setup_s;        all; multi-tenant
//	                                                                                    req_per_s
//	program       program.build_ms              replay: the tenants' Build* (encrypt,   setup_s         all
//	                                            and decrypt where used)
//	fastpath      fastpath.compile_ms           replay: Program.Compile                 setup_s;        all; multi-tenant
//	                                                                                    req_per_s
//	fastpath      fastpath.stream_ns_per_block  replay: Exec.EncryptInto, 4096 blocks   goodput_MBps    bulk (not small-ctr)
//	fastpath      fastpath.call1_us             replay: 1-block Exec.EncryptInto        lat_p50_ms      small-ctr, cbc-duplex (not bulk)
//	fastpath      fastpath.ns_per_sim_cycle     the 4096-block replay ÷ Stats.Cycles    req_per_s       every fastpath workload
//	sim           sim.ns_per_block              replay: program.RunBytes, decrypt       req_per_s       cbc-duplex only
//	                                            program, the workload's packet sizes
//	sim           sim.ns_per_cycle              the same ÷ Stats.Cycles                 req_per_s       cbc-duplex
//	sim           sim.ticks_per_req             cobra_sim_ticks_total                   none: locates interpreter work
//	runtime       runtime.alloc_bytes_per_req   /debug/vars memstats.TotalAlloc         peak_rss_MiB,   multi-tenant, bulk
//	                                                                                    lat_p90_ms
//	runtime       runtime.gc_per_kreq           memstats.NumGC                          lat_p90_ms      multi-tenant
//
// On small-ctr per-call costs add up along one blocking path (client,
// serve, farm split, one fill per shard), so a layer saves at most its
// own share. On multi-tenant and cbc-duplex both workers are about 90%
// busy: a layer that frees CPU also shortens the wait for a worker, so
// it can gain more than its share, and lat_p90_ms moves before
// req_per_s does.
//
// The layer table attributes the traced half's mean request time:
// client.configure from its spans; serve+net as the request span minus
// configure minus serve.backend_call; farm.wait (dispatch on the device
// backend) as the backend call minus worker busy time; farm.worker as
// worker busy time minus device calls, which is where rebinds run; and
// device-call time split into core, fastpath and sim by the replayed
// shares. Worker and device times are per request divided by the shards
// that ran side by side. GC pause time is shown alongside; it overlaps
// the other rows.
//
// Layer predictions, reported as held or FAILED and never made to hold
// by reshaping a workload: farm.reconfigures_per_req > 0 only on
// multi-tenant; sim.ticks_per_req ≈ 0 on small-ctr and bulk and largest
// on cbc-duplex; serve.overhead_ms a larger share of request time on
// small-ctr than on any other workload and under 5% on bulk; fastpath
// streaming most of bulk's request time.
//
// # Known gaps
//
//   - Device DecryptECBInto/DecryptCBCInto never fold their sim.Stats
//     into the device counters (internal/core/core.go), while the farm's
//     tenant accounting does, so sim_cycles_per_block and
//     core.fastpath_block_frac count encryption blocks only; the
//     decrypt datapath shows up in sim.ticks_per_req.
//   - sim_ticks repeat only when the farm performs no rebinds: each
//     rebind re-runs the configuration phase on the interpreter, and how
//     many happen is up to the host's scheduling. On multi-tenant the
//     repeat check compares every other simulated counter.
//   - The host's speed drifts over minutes, not only seconds, and the
//     benchmark cannot take that out: with the same code and seeds,
//     cbc-duplex's median over ten runs read 797 req/s in one set and
//     700 in the next, ten minutes later. In slow stretches of
//     multi-tenant both farm workers stay 93-95% busy while completed
//     requests per second fall by up to half and reconfigurations per
//     request do not rise, so the drift is the host's and not the farm's
//     schedule. Compare a change with its parent in alternating runs.
//   - The layer table's worker and device rows are per-request means
//     divided by the shards that ran side by side, an estimate of the
//     blocking path rather than a per-request measurement.
//
// # Out of scope
//
//   - Gating the benchmark in CI.
//   - Spans inside cobrad with trace IDs carried in context.Context.
//   - BENCH_farm.json and its serial reconfiguration charge.
//   - Serpent traffic: its 0.3 s Configure would turn multi-tenant into a
//     Serpent-compile benchmark.
//   - The 64-bit-block ciphers, which core.Cipher does not serve yet.
//   - BUSY shedding and backend-LRU eviction, which two connections and
//     three tenants cannot reach.
package main
