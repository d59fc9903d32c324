// Package core is the public face of the COBRA reproduction: it wraps the
// cipher-to-microcode compilers, the cycle-accurate machine, and the
// timing/area models behind a small API sized for applications — configure
// a device for an algorithm and key, stream blocks through it, read the
// performance counters the paper's evaluation is built from, and
// reconfigure on the fly for algorithm agility (§1).
//
// A Device models one COBRA chip plus its external system: Configure
// compiles and loads key-specific microcode (the key schedule is computed
// host-side and shipped as eRAM writes, matching the paper's
// external-system protocol), EncryptECB drives the ready/go/busy/data-valid
// handshake, and Report exposes measured cycles alongside the modeled clock
// frequency, throughput, and gate count.
//
// Every mode method takes a context (the unified Cipher surface, see
// cipher.go) and every Device carries an internal/obs registry: per-mode
// request/latency series, engine and fallback counters, and the simulator
// counters themselves; its owner attaches Obs() to a parent registry for
// live /metrics export. Report and Summary are views over that
// registry — there is no second set of books.
package core

import (
	"context"
	"fmt"

	"cobra/internal/bits"
	"cobra/internal/datapath"
	"cobra/internal/fastpath"
	"cobra/internal/model"
	"cobra/internal/obs"
	"cobra/internal/program"
	"cobra/internal/sim"
)

// Algorithm selects one of the block ciphers mapped onto COBRA in §4.
type Algorithm string

// The supported algorithms. Serpent denotes the COBRA-realizable Serpent
// workload (see cipher.SerpentCOBRA and DESIGN.md for the documented
// S-box-domain substitution).
const (
	RC6      Algorithm = "rc6"
	Rijndael Algorithm = "rijndael"
	Serpent  Algorithm = "serpent"
)

// TotalRounds returns the cipher's full round count.
func (a Algorithm) TotalRounds() (int, error) {
	s, err := a.spec()
	if err != nil {
		return 0, err
	}
	return s.Rounds, nil
}

// spec looks the algorithm up in the cipher registry. A device serves
// 16-byte blocks only, so the 64-bit-block ciphers are refused.
func (a Algorithm) spec() (*program.Spec, error) {
	s, err := program.Lookup(string(a))
	if err != nil {
		return nil, fmt.Errorf("core: unknown algorithm %q", a)
	}
	if s.BlockSize != 16 {
		return nil, fmt.Errorf("core: %s has %d-byte blocks; a device serves 16-byte blocks only", a, s.BlockSize)
	}
	return s, nil
}

// Config selects the architecture configuration for a session.
type Config struct {
	// Unroll is the number of rounds mapped into hardware (Table 3's
	// "Rnds"); 0 selects the full unroll (maximum throughput).
	Unroll int
	// Interpreter forces every encryption through the cycle-accurate
	// interpreter even when the program trace-compiles (the comparison and
	// debugging path; cobra-bench -fastpath measures against it). The
	// default uses the fastpath executor for bulk modes when the program
	// proves steady-state compilable.
	Interpreter bool
	// Validate runs the symbolic translation validator (package equiv) over
	// every compiled fastpath trace before installing it: a trace not proven
	// to compute the microcode's exact block stream is refused, and the
	// device falls back to the interpreter with FastpathErr reporting the
	// verdict. Off by default — validation costs a few ms to tens of ms per
	// (re)load, and the compiler is itself covered by the cobra-vet -equiv
	// corpus gate — but recommended wherever microcode arrives from outside
	// the build (cobrad tenants, assembled .casm files).
	Validate bool
}

// Device is one COBRA chip with loaded microcode.
//
// A Device is not safe for concurrent use: it owns a single sim.Machine
// (itself single-threaded silicon) and every Encrypt/Decrypt call mutates
// the machine's queues and counters. Report, Summary and ResetStats ARE
// safe to call concurrently with encryption — they read and snapshot
// atomic registry counters — which is how the farm reports on live
// workers. To serve a non-feedback workload in parallel, replicate
// devices — one per goroutine — and shard the data between them;
// internal/farm packages exactly that pattern.
type Device struct {
	spec    *program.Spec
	prog    *program.Program
	machine *sim.Machine
	timing  model.Timing
	key     []byte
	met     *deviceMetrics

	// oneBlk is the one-block scratch reused by the chaining modes'
	// block-at-a-time path (EncryptCBC), and blkBuf the bulk staging
	// scratch reused by EncryptECBInto/EncryptCTRInto — the CTR hot path
	// is allocation-free once the buffer has grown to the workload's batch
	// size (alloc_test.go pins this).
	oneBlk [1]bits.Block128
	blkBuf []bits.Block128

	// fast is the trace-compiled executor (package fastpath) serving the
	// bulk encryption paths; nil when compilation was refused (fastErr
	// records why) or forced off (interpOnly).
	fast       *fastpath.Exec
	fastErr    error
	interpOnly bool
	validate   bool

	// Decryption datapath, built lazily on first DecryptECB call (in
	// hardware terms: a second device, or this one re-loaded between
	// directions).
	decProg    *program.Program
	decMachine *sim.Machine
}

// Configure compiles the algorithm/key pair into microcode, instantiates
// the matching array geometry, loads the iRAM and runs the configuration
// phase to the idle point.
func Configure(alg Algorithm, key []byte, cfg Config) (*Device, error) {
	d := &Device{met: newDeviceMetrics()}
	if err := d.configure(alg, key, cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// configure builds the algorithm/key pair's program and loads it: onto
// the device's own machine when the array geometry matches, else onto a
// freshly tiled one. Either way the machine's observer feeds the device
// registry, so the configuration phase is counted once in cobra_sim_*.
// A build failure leaves the device untouched.
func (d *Device) configure(alg Algorithm, key []byte, cfg Config) error {
	s, err := alg.spec()
	if err != nil {
		return err
	}
	unroll := cfg.Unroll
	if unroll == 0 {
		unroll = s.Rounds
	}
	p, err := s.Build(key, unroll)
	if err != nil {
		return err
	}
	m := d.machine
	if m == nil || p.Geometry != d.prog.Geometry {
		if m, err = program.NewMachine(p); err != nil {
			return err
		}
		// The machine-level observer feeds the cobra_sim_* family:
		// interpreter machine activity including the setup/configuration
		// phase. Fastpath runs never touch the machine, so the
		// device-level cobra_device_*_total mirrors (fed by encryptInto
		// across both engines) are the bulk-encryption source of truth.
		// Counter lookups are get-or-create by name, so a re-tiled
		// machine keeps counting into the same series.
		m.Obs = sim.NewObserver(d.met.reg)
	}
	d.spec, d.prog, d.machine = s, p, m
	d.key = append([]byte(nil), key...)
	d.interpOnly, d.validate = cfg.Interpreter, cfg.Validate
	// The decryption datapath is rebuilt lazily for the new key.
	d.decProg, d.decMachine = nil, nil
	d.met.setAlg(alg)
	return d.load()
}

// load (re)loads the program, refreshes the timing analysis, and
// (re)compiles the fastpath trace — any previously compiled trace is
// invalidated, since it encodes the old program's configuration schedule.
func (d *Device) load() error {
	if d.fast != nil {
		d.met.invalidations.Inc()
	}
	d.fast, d.fastErr = nil, nil
	if err := program.Load(d.machine, d.prog); err != nil {
		return err
	}
	d.timing = model.Analyze(d.machine.Array, model.DefaultDelays())
	d.met.resetStats()
	if !d.interpOnly {
		d.fast, d.fastErr = d.prog.Compile()
		if d.fast != nil && d.validate {
			// The opt-in translation-validation gate: an unproven trace is
			// never installed. The device still works — every encryption
			// routes through the interpreter — and FastpathErr carries the
			// validator's verdict (divergence witness included).
			if res := d.prog.ValidateExec(d.fast); !res.Proven {
				d.fast, d.fastErr = nil, res.Err()
			}
		}
		if d.fast != nil {
			d.met.noteCompile(true, d.fast.Elided())
		} else {
			d.met.noteCompile(false, 0)
		}
	}
	return nil
}

// Obs returns the device's metrics registry — every series the device
// maintains, for attaching to an export parent or scraping in tests.
func (d *Device) Obs() *obs.Registry { return d.met.reg }

// UsesFastpath reports whether bulk encryption runs on the trace-compiled
// executor rather than the cycle-accurate interpreter.
func (d *Device) UsesFastpath() bool { return d.fast != nil }

// FastpathErr returns why trace compilation was refused (nil when the
// fastpath is active or was forced off by Config.Interpreter).
func (d *Device) FastpathErr() error { return d.fastErr }

// encryptInto routes a bulk block batch through the fastpath executor when
// one is compiled, falling back to the interpreter otherwise. A machine
// that has interpreted since its last load owns the in-flight stats chain,
// so such a device stays on the interpreter. The context is checked once
// per batch — a simulated batch is the unit of work a caller can abandon.
func (d *Device) encryptInto(ctx context.Context, dst, blocks []bits.Block128) (sim.Stats, error) {
	if err := ctx.Err(); err != nil {
		return sim.Stats{}, err
	}
	var st sim.Stats
	var err error
	if d.fast != nil && !d.machine.Dirty() {
		st, err = d.fast.EncryptInto(dst, blocks)
		if err == nil {
			d.met.fastBlocks.Add(int64(len(blocks)))
		}
	} else {
		switch {
		case d.interpOnly:
			d.met.fbForced.Inc()
		case d.fast == nil:
			d.met.fbRefused.Inc()
		default:
			d.met.fbDirty.Inc()
		}
		st, err = program.Run(d.machine, d.prog, dst, blocks, program.Opts{})
		if err == nil {
			d.met.interpBlocks.Add(int64(len(blocks)))
		}
	}
	if err != nil {
		return st, err
	}
	d.met.addStats(st)
	return st, nil
}

// scratch returns the bulk staging buffer, grown to hold n blocks. The
// buffer is device-owned (a Device is single-goroutine by contract), so
// steady-state bulk calls allocate nothing.
func (d *Device) scratch(n int) []bits.Block128 {
	if cap(d.blkBuf) < n {
		d.blkBuf = make([]bits.Block128, n)
	}
	return d.blkBuf[:n]
}

// Reconfigure switches the device to a new algorithm/key — the §1
// algorithm-agility scenario. When the new configuration needs a different
// array geometry the machine is rebuilt (in hardware terms: a differently
// tiled part); with matching geometry only the microcode reloads. Either
// way the device keeps its metrics registry (and any parent attachment):
// exported counters stay monotonic across the switch, the info series
// flips to the new algorithm, and the Report view resets.
func (d *Device) Reconfigure(alg Algorithm, key []byte, cfg Config) error {
	return d.configure(alg, key, cfg)
}

// Algorithm returns the configured algorithm.
func (d *Device) Algorithm() Algorithm { return Algorithm(d.spec.Name) }

// Unroll returns the configured unroll depth.
func (d *Device) Unroll() int { return d.prog.HWRounds }

// Geometry returns the array geometry in rows.
func (d *Device) Geometry() datapath.Geometry { return d.prog.Geometry }

// BlockSize returns the cipher block size in bytes.
func (d *Device) BlockSize() int { return d.spec.BlockSize }

// EncryptECB encrypts src (a multiple of 16 bytes) into a fresh slice by
// streaming the blocks through the datapath in electronic-codebook mode,
// the paper's measurement mode.
func (d *Device) EncryptECB(ctx context.Context, src []byte) ([]byte, error) {
	dst := make([]byte, len(src))
	if _, err := d.EncryptECBInto(ctx, dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// EncryptECBInto is EncryptECB writing into a caller-supplied buffer
// (len(dst) >= len(src)) and returning the simulator counters for exactly
// this call — the farm's worker path, where per-shard stats are aggregated
// into a pool-wide report.
func (d *Device) EncryptECBInto(ctx context.Context, dst, src []byte) (sim.Stats, error) {
	d.met.calls[opECB].Inc()
	sp := d.met.lat[opECB].Start()
	st, err := d.encryptECBInto(ctx, dst, src)
	sp.End()
	d.met.finish(opECB, len(src), err)
	return st, err
}

func (d *Device) encryptECBInto(ctx context.Context, dst, src []byte) (sim.Stats, error) {
	if len(src)%16 != 0 {
		return sim.Stats{}, fmt.Errorf("core: input length %d is not a multiple of the block size", len(src))
	}
	if len(dst) < len(src) {
		return sim.Stats{}, fmt.Errorf("core: dst is %d bytes, need %d", len(dst), len(src))
	}
	if len(src) == 0 {
		return sim.Stats{}, ctx.Err()
	}
	blocks := d.scratch(len(src) / 16)
	for i := range blocks {
		blocks[i] = bits.LoadBlock128(src[16*i:])
	}
	stats, err := d.encryptInto(ctx, blocks, blocks)
	if err != nil {
		return stats, err
	}
	for i := range blocks {
		blocks[i].StoreBlock128(dst[16*i:])
	}
	return stats, nil
}

// encryptBlockInPlace runs a single block through the datapath, reusing
// the device's one-block scratch so the chaining loop performs no per-block
// slice allocations.
func (d *Device) encryptBlockInPlace(ctx context.Context, b *[16]byte) error {
	d.oneBlk[0] = bits.LoadBlock128(b[:])
	if _, err := d.encryptInto(ctx, d.oneBlk[:], d.oneBlk[:]); err != nil {
		return err
	}
	d.oneBlk[0].StoreBlock128(b[:])
	return nil
}

// EncryptCBC encrypts src in cipher-block-chaining mode: each block is
// XORed with the previous ciphertext before entering the datapath. The
// chaining dependency serializes the device — one block in flight — which
// is exactly the feedback-mode penalty of the paper's Table 1 (FB vs NFB
// columns): a full-length pipeline degrades to its fill+drain latency per
// block. iv must be one block (16 bytes). The context is checked between
// blocks, so a long chained message can be abandoned mid-stream.
func (d *Device) EncryptCBC(ctx context.Context, iv, src []byte) ([]byte, error) {
	dst := make([]byte, len(src))
	if _, err := d.EncryptCBCInto(ctx, dst, iv, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// EncryptCBCInto is EncryptCBC writing into a caller-supplied buffer
// (len(dst) >= len(src), may alias src) — the farm serializes a CBC
// message onto one worker through this entry point.
func (d *Device) EncryptCBCInto(ctx context.Context, dst, iv, src []byte) (sim.Stats, error) {
	d.met.calls[opCBC].Inc()
	sp := d.met.lat[opCBC].Start()
	st, err := d.encryptCBCInto(ctx, dst, iv, src)
	sp.End()
	d.met.finish(opCBC, len(src), err)
	return st, err
}

func (d *Device) encryptCBCInto(ctx context.Context, dst, iv, src []byte) (sim.Stats, error) {
	if len(iv) != 16 {
		return sim.Stats{}, fmt.Errorf("core: iv must be 16 bytes")
	}
	if len(src)%16 != 0 {
		return sim.Stats{}, fmt.Errorf("core: input length %d is not a multiple of the block size", len(src))
	}
	if len(dst) < len(src) {
		return sim.Stats{}, fmt.Errorf("core: dst is %d bytes, need %d", len(dst), len(src))
	}
	start := d.met.statsView()
	prev := iv
	var blk [16]byte
	for i := 0; i < len(src); i += 16 {
		for j := 0; j < 16; j++ {
			blk[j] = src[i+j] ^ prev[j]
		}
		if err := d.encryptBlockInPlace(ctx, &blk); err != nil {
			return sim.Stats{}, err
		}
		copy(dst[i:], blk[:])
		prev = dst[i : i+16]
	}
	return d.met.statsView().Delta(start), nil
}

// incCounter increments a CTR counter block interpreted as a 128-bit
// big-endian integer — the standard incrementing function of NIST
// SP 800-38A — wrapping at 2^128.
func incCounter(c *[16]byte) {
	for i := 15; i >= 0; i-- {
		c[i]++
		if c[i] != 0 {
			return
		}
	}
}

// AddCounter returns iv + n with the counter block interpreted as a
// 128-bit big-endian integer, wrapping modulo 2^128. iv must be 16 bytes.
// The farm uses it to derive the starting counter of each shard from the
// shard's block offset.
func AddCounter(iv []byte, n uint64) ([16]byte, error) {
	var c [16]byte
	if len(iv) != 16 {
		return c, fmt.Errorf("core: iv must be 16 bytes")
	}
	copy(c[:], iv)
	carry := n
	for i := 15; i >= 0 && carry != 0; i-- {
		sum := uint64(c[i]) + carry&0xff
		c[i] = byte(sum)
		carry = carry>>8 + sum>>8
	}
	return c, nil
}

// EncryptCTR encrypts src in counter mode: keystream block i is the
// datapath encryption of iv+i and ciphertext is plaintext XOR keystream
// (the XOR is host-side, as block assembly is in the paper's external
// system). Counter mode is the non-feedback workload of Table 1's NFB
// column — every keystream block is independent, so the counters stream
// through the pipeline back to back, and a message shards across devices
// by counter range (internal/farm). src may end in a partial block: CTR
// turns the block cipher into a stream cipher. Decryption is the same
// operation (DecryptCTR).
func (d *Device) EncryptCTR(ctx context.Context, iv, src []byte) ([]byte, error) {
	dst := make([]byte, len(src))
	if _, err := d.EncryptCTRInto(ctx, dst, iv, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecryptCTR inverts EncryptCTR; counter mode is an involution, so the
// call is accounted under mode="ctr" like its encryption twin.
func (d *Device) DecryptCTR(ctx context.Context, iv, src []byte) ([]byte, error) {
	return d.EncryptCTR(ctx, iv, src)
}

// EncryptCTRInto is EncryptCTR writing into a caller-supplied buffer
// (len(dst) >= len(src)) and returning the simulator counters for exactly
// this call. On a warmed device with an active fastpath the call is
// allocation-free (the benchmark gate in internal/fastpath pins this).
func (d *Device) EncryptCTRInto(ctx context.Context, dst, iv, src []byte) (sim.Stats, error) {
	d.met.calls[opCTR].Inc()
	sp := d.met.lat[opCTR].Start()
	st, err := d.encryptCTRInto(ctx, dst, iv, src)
	sp.End()
	d.met.finish(opCTR, len(src), err)
	return st, err
}

func (d *Device) encryptCTRInto(ctx context.Context, dst, iv, src []byte) (sim.Stats, error) {
	if len(iv) != 16 {
		return sim.Stats{}, fmt.Errorf("core: iv must be 16 bytes")
	}
	if len(dst) < len(src) {
		return sim.Stats{}, fmt.Errorf("core: dst is %d bytes, need %d", len(dst), len(src))
	}
	if len(src) == 0 {
		return sim.Stats{}, ctx.Err()
	}
	n := (len(src) + 15) / 16
	ctrs := d.scratch(n)
	var c [16]byte
	copy(c[:], iv)
	for i := range ctrs {
		ctrs[i] = bits.LoadBlock128(c[:])
		incCounter(&c)
	}
	stats, err := d.encryptInto(ctx, ctrs, ctrs)
	if err != nil {
		return sim.Stats{}, err
	}
	var ks [16]byte
	for i := 0; i < n; i++ {
		ctrs[i].StoreBlock128(ks[:])
		off := 16 * i
		m := len(src) - off
		if m > 16 {
			m = 16
		}
		for j := 0; j < m; j++ {
			dst[off+j] = src[off+j] ^ ks[j]
		}
	}
	return stats, nil
}

// DecryptCBC inverts EncryptCBC on the decryption datapath.
func (d *Device) DecryptCBC(ctx context.Context, iv, src []byte) ([]byte, error) {
	dst := make([]byte, len(src))
	if _, err := d.DecryptCBCInto(ctx, dst, iv, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecryptCBCInto is DecryptCBC writing into a caller-supplied buffer
// (len(dst) >= len(src); dst must not alias src — the chaining XOR reads
// the previous ciphertext block after the block cipher output lands) and
// returning the simulator counters for exactly this call. CBC decryption
// is a non-feedback direction: every block needs only ciphertext the
// caller already holds, which is why the farm can shard this entry point
// where EncryptCBCInto serializes.
func (d *Device) DecryptCBCInto(ctx context.Context, dst, iv, src []byte) (sim.Stats, error) {
	d.met.calls[opDecCBC].Inc()
	sp := d.met.lat[opDecCBC].Start()
	st, err := d.decryptCBCInto(ctx, dst, iv, src)
	sp.End()
	d.met.finish(opDecCBC, len(src), err)
	return st, err
}

func (d *Device) decryptCBCInto(ctx context.Context, dst, iv, src []byte) (sim.Stats, error) {
	if len(iv) != 16 {
		return sim.Stats{}, fmt.Errorf("core: iv must be 16 bytes")
	}
	st, err := d.decryptECBInto(ctx, dst, src)
	if err != nil {
		return st, err
	}
	prev := iv
	for i := 0; i < len(src); i += 16 {
		for j := 0; j < 16; j++ {
			dst[i+j] ^= prev[j]
		}
		prev = src[i : i+16]
	}
	return st, nil
}

// DecryptECB decrypts src on the datapath. The paper's evaluation maps
// only encryption; the decryption microcode here (internal/program's
// decrypt builders) shows the architecture carries the inverse ciphers
// with the same structures — RC6 via SUB + negated-amount rotates,
// Rijndael via the FIPS-197 equivalent inverse cipher, Serpent via the
// inverse LT rows. The decryption program is compiled and loaded lazily on
// first use.
func (d *Device) DecryptECB(ctx context.Context, src []byte) ([]byte, error) {
	dst := make([]byte, len(src))
	if _, err := d.DecryptECBInto(ctx, dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecryptECBInto is DecryptECB writing into a caller-supplied buffer
// (len(dst) >= len(src)) and returning the simulator counters for exactly
// this call — the farm's sharded-decrypt worker path.
func (d *Device) DecryptECBInto(ctx context.Context, dst, src []byte) (sim.Stats, error) {
	d.met.calls[opDecECB].Inc()
	sp := d.met.lat[opDecECB].Start()
	st, err := d.decryptECBInto(ctx, dst, src)
	sp.End()
	d.met.finish(opDecECB, len(src), err)
	return st, err
}

func (d *Device) decryptECBInto(ctx context.Context, dst, src []byte) (sim.Stats, error) {
	if err := ctx.Err(); err != nil {
		return sim.Stats{}, err
	}
	if len(src)%16 != 0 {
		return sim.Stats{}, fmt.Errorf("core: input length %d is not a multiple of the block size", len(src))
	}
	if len(dst) < len(src) {
		return sim.Stats{}, fmt.Errorf("core: dst is %d bytes, need %d", len(dst), len(src))
	}
	if d.decMachine == nil {
		if err := d.buildDecryptor(); err != nil {
			return sim.Stats{}, err
		}
	}
	return program.RunBytes(d.decMachine, d.decProg, dst[:len(src)], src, program.Opts{})
}

// buildDecryptor compiles and loads the decryption datapath. Its machine
// shares the device registry's observer, so the cobra_sim_* family covers
// both directions.
func (d *Device) buildDecryptor() error {
	p, err := d.spec.BuildDecrypt(d.key, d.prog.HWRounds)
	if err != nil {
		return err
	}
	m, err := program.NewMachine(p)
	if err != nil {
		return err
	}
	m.Obs = sim.NewObserver(d.met.reg)
	if err := program.Load(m, p); err != nil {
		return err
	}
	d.decProg, d.decMachine = p, m
	return nil
}

// Report summarizes a device's measured and modeled performance: the
// backend-independent Summary plus the device-only timing/area model
// outputs. Field names and JSON tags are a stable reporting surface
// (pinned by the golden test in report_test.go).
type Report struct {
	Summary
	// Streaming reports whether the loaded program is a streaming
	// (full-unroll, non-feedback) mapping.
	Streaming bool `json:"streaming"`
	// IRAMMHz is the modeled instruction-RAM clock (§3.3's dual clocks).
	IRAMMHz float64 `json:"iram_mhz"`
	// Gates is the modeled gate count (Table 5).
	Gates int `json:"gates"`
}

// Report returns the accumulated performance counters combined with the
// timing and area models — the quantities Tables 3, 5 and 6 report. The
// counters sum every bulk encryption since configuration (or ResetStats)
// across both engines: interpreter runs and fastpath runs (which report
// the cycles the interpreter would have spent) accumulate identically.
// The view is derived from the device's obs registry, so Report agrees
// with a concurrent /metrics scrape by construction.
func (d *Device) Report() Report {
	st := d.met.statsView()
	cpb := 0.0
	if st.BlocksOut > 0 {
		cpb = float64(st.Cycles) / float64(st.BlocksOut)
	}
	return Report{
		Summary: Summary{
			Algorithm:      d.Algorithm(),
			Backend:        "device",
			Workers:        1,
			Unroll:         d.prog.HWRounds,
			Rows:           d.prog.Geometry.Rows,
			Stats:          st,
			CyclesPerBlock: cpb,
			DatapathMHz:    d.timing.DatapathMHz,
			ThroughputMbps: d.timing.ThroughputMbps(cpb),
		},
		Streaming: d.prog.Streaming,
		IRAMMHz:   d.timing.IRAMMHz,
		Gates:     model.Table5(model.Table4(), d.prog.Geometry).Total(),
	}
}

// Summary returns the backend-independent view of Report (the Cipher
// accessor).
func (d *Device) Summary() Summary { return d.Report().Summary }

// ResetStats zeroes the performance counters between measurement phases.
// The reset is a snapshot of the registry's atomic counters — safe while
// an encryption is in flight, and the exported /metrics series keep
// counting monotonically.
func (d *Device) ResetStats() { d.met.resetStats() }

// Describe renders the configured architecture topology (figure 1 style).
func (d *Device) Describe() string { return d.machine.Array.Describe() }

// Microcode returns the loaded program size in 80-bit instruction words.
func (d *Device) Microcode() int { return len(d.prog.Instrs) }
