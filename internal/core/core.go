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
// frequency, throughput, and gate count. What Configure compiles — the
// microcode, its configuration phase recorded once on a fresh array, its
// fastpath traces and the timing model — is an Image (Device.Image):
// other devices load it (NewDevice, Device.Load) by restoring the
// recording, which counts the phase's simulated cycles without simulating
// it again. That is how internal/farm's workers switch tenants.
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
	"sync"

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
	// Interpreter forces every encryption and decryption through the
	// cycle-accurate interpreter even when the program trace-compiles (the
	// comparison and debugging path; cobra-bench -fastpath measures against
	// it). The default runs each direction on the fastpath executor when
	// its program proves steady-state compilable.
	Interpreter bool
	// Validate runs the symbolic translation validator (package equiv) over
	// every compiled fastpath trace, of either direction, before an Image
	// carries it: a trace not proven to compute the microcode's exact
	// block stream is refused, and that direction falls back to the
	// interpreter (FastpathErr reports the encryption trace's verdict).
	// The proven trace is the object every device loaded from the image
	// runs. Off by default: validation costs a few ms to tens of ms per
	// image (once per trace; devices that Load the image do not validate
	// again). What it adds is a proof of the image's own key-specific
	// traces, whose folded immediates and whitening keys come from its
	// key. CI's cobra-vet -builtin -equiv gate proves the same programs
	// only for its builtin key (ROADMAP item 5), and an assembled .casm
	// file never reaches a Config: cobra-vet -equiv proves it directly.
	Validate bool
}

// Image is one (algorithm, key, Config) compiled for loading: the
// encryption program, its recording and compiled trace, the timing model,
// and the decryption program, its recording and trace, built on the first
// decrypt of any device loaded from the image at the depth DecryptECB
// documents. The Config.Validate gate runs once per trace, here. An Image
// is immutable once built, apart from that once-only decryption build, and
// safe for concurrent use: any number of devices may load it
// (Device.Load), each restoring the recordings onto its own machines and
// running its own executor over the shared traces. It is the microcode a
// COBRA part reloads on a switch (§1's algorithm agility), assembled once.
type Image struct {
	alg    Algorithm
	spec   *program.Spec
	key    []byte
	cfg    Config
	timing model.Timing
	enc    *code

	decOnce sync.Once
	dec     *code
	decErr  error
}

// code is one direction's compiled microcode: the program, its recording
// (the machine at the idle point its configuration phase reaches on a
// fresh array, with the phase's counters) and the trace compiled from it —
// nil when compilation was refused (err records why) or forced off by
// Config.Interpreter. No device runs trace itself; each runs a Fresh
// executor over it.
type code struct {
	prog  *program.Program
	rec   *sim.Recording
	trace *fastpath.Exec
	err   error
}

// compile records p's configuration phase and trace-compiles p unless
// cfg.Interpreter forces it off, and applies the opt-in Config.Validate
// gate: an unproven trace is dropped, so that direction runs on the
// interpreter, and err carries the validator's verdict (divergence
// witness included). Only a configuration phase that fails is an error.
func compile(p *program.Program, cfg Config) (*code, error) {
	rec, err := p.Record()
	if err != nil {
		return nil, err
	}
	c := &code{prog: p, rec: rec}
	if cfg.Interpreter {
		return c, nil
	}
	c.trace, c.err = p.CompileFrom(rec)
	if c.trace != nil && cfg.Validate {
		if res := p.ValidateExec(c.trace); !res.Proven {
			c.trace, c.err = nil, res.Err()
		}
	}
	return c, nil
}

// newImage builds and compiles an image of the algorithm/key pair. Its
// timing model is analyzed on the recorded array.
func newImage(alg Algorithm, key []byte, cfg Config) (*Image, error) {
	s, err := alg.spec()
	if err != nil {
		return nil, err
	}
	unroll := cfg.Unroll
	if unroll == 0 {
		unroll = s.Rounds
	}
	p, err := s.Build(key, unroll)
	if err != nil {
		return nil, err
	}
	enc, err := compile(p, cfg)
	if err != nil {
		return nil, err
	}
	return &Image{
		alg: alg, spec: s, key: append([]byte(nil), key...), cfg: cfg, enc: enc,
		timing: model.Analyze(enc.rec.Array(), model.DefaultDelays()),
	}, nil
}

// decoder returns the image's decryption code, building it on the first
// call from any device: at the image's unroll when Spec.DecryptDepths
// (ascending) lists it, else at the deepest listed depth below it. built
// reports whether this call built it.
func (img *Image) decoder() (*code, bool, error) {
	built := false
	img.decOnce.Do(func() {
		built = true
		hw := 0
		for _, dd := range img.spec.DecryptDepths {
			if dd <= img.enc.prog.HWRounds {
				hw = dd
			}
		}
		p, err := img.spec.BuildDecrypt(img.key, hw)
		if err != nil {
			img.decErr = err
			return
		}
		img.dec, img.decErr = compile(p, img.cfg)
	})
	return img.dec, built, img.decErr
}

// engine is one direction's datapath on a device: the image's code, the
// machine its recording is restored on, and the device's own executor
// over its compiled trace — nil when there is none (code.err records why).
type engine struct {
	*code
	machine *sim.Machine
	fast    *fastpath.Exec
}

// machineKey names one of a device's machines: a direction and a geometry.
type machineKey struct {
	geo     datapath.Geometry
	decrypt bool
}

// Device is one COBRA chip with loaded microcode.
//
// A Device is not safe for concurrent use: it owns sim.Machines per
// direction (single-threaded silicon) and every Encrypt/Decrypt call
// mutates one's queues and counters. Report, Summary and ResetStats ARE
// safe to call concurrently with encryption — they read and snapshot
// atomic registry counters — which is how the farm reports on live
// workers. To serve a non-feedback workload in parallel, replicate
// devices — one per goroutine, each loaded from one Image — and shard
// the data between them; internal/farm packages exactly that pattern.
type Device struct {
	img *Image
	met *deviceMetrics

	// enc is the encryption engine, installed by every load; dec the
	// decryption engine, installed on the first decrypt call and dropped
	// by the next load (in hardware terms: a second device, or this one
	// re-loaded between directions).
	enc, dec *engine

	// machines holds one machine per direction and array geometry the
	// device has loaded, tiled on first use and kept across loads: an
	// engine's machine is the one for its direction and its program's
	// geometry, restored from the program's recording.
	machines map[machineKey]*sim.Machine

	// oneBlk is the one-block scratch reused by the chaining modes'
	// block-at-a-time path (EncryptCBC), and blkBuf the bulk staging
	// scratch reused by the ECB, CTR and decryption paths — they are
	// allocation-free once the buffer has grown to the workload's batch
	// size (obs_test.go pins this).
	oneBlk [1]bits.Block128
	blkBuf []bits.Block128
}

// Configure builds an image of the algorithm/key pair and loads it on a
// new device: it compiles the key-specific microcode, runs its
// configuration phase once to the idle point on a fresh array (the
// image's recording), compiles the fastpath trace, and restores the
// recording onto a machine of the matching array geometry.
func Configure(alg Algorithm, key []byte, cfg Config) (*Device, error) {
	d := &Device{met: newDeviceMetrics()}
	if err := d.configure(alg, key, cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// NewDevice loads img on a new device (see Load).
func NewDevice(img *Image) (*Device, error) {
	d := &Device{met: newDeviceMetrics()}
	if err := d.Load(img); err != nil {
		return nil, err
	}
	return d, nil
}

// configure builds an image of the algorithm/key pair and loads it; its
// trace counts as this device's compile. A build failure leaves the
// device untouched.
func (d *Device) configure(alg Algorithm, key []byte, cfg Config) error {
	img, err := newImage(alg, key, cfg)
	if err != nil {
		return err
	}
	if err := d.load(img); err != nil {
		return err
	}
	if !cfg.Interpreter {
		d.met.noteCompile(img.enc.trace != nil)
	}
	return nil
}

// Load switches the device to img, compiled elsewhere (by Configure or
// Reconfigure on any device; Image returns it): the device restores the
// image's recorded configuration phase onto its machine for the image's
// geometry, counting the phase as if it had run, and takes its own
// executor over the image's trace instead of compiling one. The device
// keeps its metrics registry, and the Report view resets.
func (d *Device) Load(img *Image) error {
	if err := d.load(img); err != nil {
		return err
	}
	if img.enc.trace != nil {
		d.met.installs.Inc()
	}
	return nil
}

// load makes img the device's configuration, with its encryption
// recording restored (see restore). Both engines of the previous
// configuration go (a compiled trace encodes its program's configuration
// schedule), each dropped trace counted as an invalidation, and the
// Report view resets.
func (d *Device) load(img *Image) error {
	m, err := d.restore(false, img.enc)
	if err != nil {
		return err
	}
	for _, e := range [...]*engine{d.enc, d.dec} {
		if e != nil && e.fast != nil {
			d.met.invalidations.Inc()
		}
	}
	d.img, d.enc, d.dec = img, img.enc.engine(m), nil
	d.met.setAlg(img.alg)
	d.met.resetStats()
	return nil
}

// restore copies c's recording onto the device's machine for one
// direction and c's geometry, tiling that machine on first use. Every
// machine's observer feeds the device registry, so each restored
// configuration phase counts once in cobra_sim_*, as a run phase would;
// fastpath runs never touch the machine, so the cobra_device_*_total
// mirrors that run feeds are the source of truth for bulk work.
func (d *Device) restore(decrypt bool, c *code) (*sim.Machine, error) {
	k := machineKey{geo: c.prog.Geometry, decrypt: decrypt}
	m := d.machines[k]
	if m == nil {
		var err error
		if m, err = program.NewMachine(c.prog); err != nil {
			return nil, err
		}
		m.Obs = d.met.sim
		if d.machines == nil {
			d.machines = make(map[machineKey]*sim.Machine)
		}
		d.machines[k] = m
	}
	return m, m.Restore(c.rec)
}

// engine returns a device engine running c on m, with its own executor
// over c's trace.
func (c *code) engine(m *sim.Machine) *engine {
	e := &engine{code: c, machine: m}
	if c.trace != nil {
		e.fast = c.trace.Fresh()
	}
	return e
}

// interpret runs a batch on the engine's machine. A streaming program
// leaves flush blocks in flight after a call, so a used machine is
// restored to the recorded idle point first, where program.Run would load
// the program and run its configuration phase again.
func (e *engine) interpret(dst, src []bits.Block128) (sim.Stats, error) {
	if e.prog.Streaming && e.machine.Dirty() {
		if err := e.machine.Restore(e.rec); err != nil {
			return sim.Stats{}, err
		}
	}
	return program.Run(e.machine, e.prog, dst, src, program.Opts{})
}

// Image returns the device's loaded image, for loading on other devices.
func (d *Device) Image() *Image { return d.img }

// decryptor returns the decryption engine, installing it on first use:
// the image's decryption code (built and compiled by the first decrypt
// of any device loaded from the image, counted as that device's
// compile) restored on the device's decryption machine for its geometry.
// Installing it neither resets the Report view nor counts an
// invalidation: it adds a direction rather than replacing one.
func (d *Device) decryptor() (*engine, error) {
	if d.dec == nil {
		c, built, err := d.img.decoder()
		if err != nil {
			return nil, err
		}
		m, err := d.restore(true, c)
		if err != nil {
			return nil, err
		}
		switch {
		case d.img.cfg.Interpreter:
		case built:
			d.met.noteCompile(c.trace != nil)
		case c.trace != nil:
			d.met.installs.Inc()
		}
		d.dec = c.engine(m)
	}
	return d.dec, nil
}

// Obs returns the device's metrics registry — every series the device
// maintains, for attaching to an export parent or scraping in tests.
func (d *Device) Obs() *obs.Registry { return d.met.reg }

// UsesFastpath reports whether encryption runs on the trace-compiled
// executor rather than the cycle-accurate interpreter.
func (d *Device) UsesFastpath() bool { return d.enc.fast != nil }

// FastpathErr returns why the encryption trace was refused (nil when the
// fastpath is active or was forced off by Config.Interpreter).
func (d *Device) FastpathErr() error { return d.enc.err }

// run routes a block batch through one direction's engine — the
// encryption engine, or with decrypt set the decryption engine, built on
// first use — and folds the call's simulator counters into the device's.
// The batch runs on the compiled trace when there is one, else on the
// interpreter. The context is checked once per batch — a simulated batch is the unit
// of work a caller can abandon.
func (d *Device) run(ctx context.Context, decrypt bool, dst, blocks []bits.Block128) (sim.Stats, error) {
	if err := ctx.Err(); err != nil {
		return sim.Stats{}, err
	}
	e, err := d.enc, error(nil)
	if decrypt {
		if e, err = d.decryptor(); err != nil {
			return sim.Stats{}, err
		}
	}
	var st sim.Stats
	if e.fast != nil {
		st, err = e.fast.EncryptInto(dst, blocks)
		if err == nil {
			d.met.fastBlocks.Add(int64(len(blocks)))
		}
	} else {
		if d.img.cfg.Interpreter {
			d.met.fbForced.Inc()
		} else {
			d.met.fbRefused.Inc()
		}
		st, err = e.interpret(dst, blocks)
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

// fresh runs an *Into call with a new output buffer the size of src.
func fresh(src []byte, into func(dst []byte) (sim.Stats, error)) ([]byte, error) {
	dst := make([]byte, len(src))
	if _, err := into(dst); err != nil {
		return nil, err
	}
	return dst, nil
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
// algorithm-agility scenario — by building an image of the pair and
// loading it. The device keeps a machine for every array geometry it has
// loaded (in hardware terms: a differently tiled part per geometry), and
// the switch restores the new image's recording onto the one for its
// geometry. The device keeps its metrics registry (and any parent
// attachment): exported counters stay monotonic across the switch, the
// info series flips to the new algorithm, and the Report view resets. A
// switch to a pair some device already compiled is cheaper through Load.
func (d *Device) Reconfigure(alg Algorithm, key []byte, cfg Config) error {
	return d.configure(alg, key, cfg)
}

// Algorithm returns the configured algorithm.
func (d *Device) Algorithm() Algorithm { return Algorithm(d.img.spec.Name) }

// Unroll returns the configured unroll depth.
func (d *Device) Unroll() int { return d.enc.prog.HWRounds }

// Geometry returns the array geometry in rows.
func (d *Device) Geometry() datapath.Geometry { return d.enc.prog.Geometry }

// BlockSize returns the cipher block size in bytes.
func (d *Device) BlockSize() int { return d.img.spec.BlockSize }

// EncryptECB encrypts src (a multiple of 16 bytes) into a fresh slice by
// streaming the blocks through the datapath in electronic-codebook mode,
// the paper's measurement mode.
func (d *Device) EncryptECB(ctx context.Context, src []byte) ([]byte, error) {
	return fresh(src, func(dst []byte) (sim.Stats, error) { return d.EncryptECBInto(ctx, dst, src) })
}

// EncryptECBInto is EncryptECB writing into a caller-supplied buffer
// (len(dst) >= len(src)) and returning the simulator counters for exactly
// this call — the farm's worker path, where per-shard stats are aggregated
// into a pool-wide report.
func (d *Device) EncryptECBInto(ctx context.Context, dst, src []byte) (sim.Stats, error) {
	sp := d.met.start(opECB)
	st, err := d.ecbInto(ctx, false, dst, src)
	d.met.finish(sp, opECB, len(src), err)
	return st, err
}

// ecbInto streams whole blocks through one direction's engine (see run).
func (d *Device) ecbInto(ctx context.Context, decrypt bool, dst, src []byte) (sim.Stats, error) {
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
	stats, err := d.run(ctx, decrypt, blocks, blocks)
	if err != nil {
		return stats, err
	}
	for i := range blocks {
		blocks[i].StoreBlock128(dst[16*i:])
	}
	return stats, nil
}

// EncryptCBC encrypts src in cipher-block-chaining mode: each block is
// XORed with the previous ciphertext before entering the datapath. The
// chaining dependency serializes the device — one block in flight — which
// is exactly the feedback-mode penalty of the paper's Table 1 (FB vs NFB
// columns): a full-length pipeline degrades to its fill+drain latency per
// block. That latency is in simulated cycles (Report); the fastpath runs a
// 1-block call's block through the trace's batch form once, every row in
// order, so host time does not pay it again. iv must be one block (16 bytes). The
// context is checked between blocks, so a long chained message can be
// abandoned mid-stream.
func (d *Device) EncryptCBC(ctx context.Context, iv, src []byte) ([]byte, error) {
	return fresh(src, func(dst []byte) (sim.Stats, error) { return d.EncryptCBCInto(ctx, dst, iv, src) })
}

// EncryptCBCInto is EncryptCBC writing into a caller-supplied buffer
// (len(dst) >= len(src), may alias src) — the farm serializes a CBC
// message onto one worker through this entry point.
func (d *Device) EncryptCBCInto(ctx context.Context, dst, iv, src []byte) (sim.Stats, error) {
	sp := d.met.start(opCBC)
	st, err := d.encryptCBCInto(ctx, dst, iv, src)
	d.met.finish(sp, opCBC, len(src), err)
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
	// One block in flight, staged in the device's one-block scratch so the
	// chaining loop performs no per-block slice allocations.
	start := d.met.statsView()
	prev := iv
	var blk [16]byte
	for i := 0; i < len(src); i += 16 {
		for j := 0; j < 16; j++ {
			blk[j] = src[i+j] ^ prev[j]
		}
		d.oneBlk[0] = bits.LoadBlock128(blk[:])
		if _, err := d.run(ctx, false, d.oneBlk[:], d.oneBlk[:]); err != nil {
			return sim.Stats{}, err
		}
		d.oneBlk[0].StoreBlock128(dst[i:])
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
	return fresh(src, func(dst []byte) (sim.Stats, error) { return d.EncryptCTRInto(ctx, dst, iv, src) })
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
	sp := d.met.start(opCTR)
	st, err := d.encryptCTRInto(ctx, dst, iv, src)
	d.met.finish(sp, opCTR, len(src), err)
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
	stats, err := d.run(ctx, false, ctrs, ctrs)
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
	return fresh(src, func(dst []byte) (sim.Stats, error) { return d.DecryptCBCInto(ctx, dst, iv, src) })
}

// DecryptCBCInto is DecryptCBC writing into a caller-supplied buffer
// (len(dst) >= len(src); dst must not alias src — the chaining XOR reads
// the previous ciphertext block after the block cipher output lands) and
// returning the simulator counters for exactly this call. CBC decryption
// is a non-feedback direction: every block needs only ciphertext the
// caller already holds, which is why the farm can shard this entry point
// where EncryptCBCInto serializes.
func (d *Device) DecryptCBCInto(ctx context.Context, dst, iv, src []byte) (sim.Stats, error) {
	sp := d.met.start(opDecCBC)
	st, err := d.decryptCBCInto(ctx, dst, iv, src)
	d.met.finish(sp, opDecCBC, len(src), err)
	return st, err
}

func (d *Device) decryptCBCInto(ctx context.Context, dst, iv, src []byte) (sim.Stats, error) {
	if len(iv) != 16 {
		return sim.Stats{}, fmt.Errorf("core: iv must be 16 bytes")
	}
	st, err := d.ecbInto(ctx, true, dst, src)
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
// inverse LT rows. The first decrypt call installs the decryption engine
// — its program loaded on a machine of its own, with the trace the
// device's image compiled (and gated by Config.Validate) on the first
// decrypt of any device loaded from it — and its blocks and cycles count
// in Report like encryption's. It decrypts at the device's unroll when the
// cipher maps a decryptor there (program.Spec.DecryptDepths), else at the
// deepest mapped depth below it: Serpent's inverse is mapped at depth 1
// only, so a serpent-32 device decrypts on serpent-dec-1 and its Report
// shows that program's cycles per block.
func (d *Device) DecryptECB(ctx context.Context, src []byte) ([]byte, error) {
	return fresh(src, func(dst []byte) (sim.Stats, error) { return d.DecryptECBInto(ctx, dst, src) })
}

// DecryptECBInto is DecryptECB writing into a caller-supplied buffer
// (len(dst) >= len(src)) and returning the simulator counters for exactly
// this call — the farm's sharded-decrypt worker path.
func (d *Device) DecryptECBInto(ctx context.Context, dst, src []byte) (sim.Stats, error) {
	sp := d.met.start(opDecECB)
	st, err := d.ecbInto(ctx, true, dst, src)
	d.met.finish(sp, opDecECB, len(src), err)
	return st, err
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
// counters sum every encryption and decryption since configuration (or
// ResetStats) across both executors: interpreter runs and fastpath runs
// (which report the cycles the interpreter would have spent) accumulate
// identically. The clock and area models describe the encryption
// program's array.
// The view is derived from the device's obs registry, so Report agrees
// with a concurrent /metrics scrape by construction.
func (d *Device) Report() Report {
	st := d.met.statsView()
	p := d.enc.prog
	cpb := 0.0
	if st.BlocksOut > 0 {
		cpb = float64(st.Cycles) / float64(st.BlocksOut)
	}
	return Report{
		Summary: Summary{
			Algorithm:      d.Algorithm(),
			Backend:        "device",
			Workers:        1,
			Unroll:         p.HWRounds,
			Rows:           p.Geometry.Rows,
			Stats:          st,
			CyclesPerBlock: cpb,
			DatapathMHz:    d.img.timing.DatapathMHz,
			ThroughputMbps: d.img.timing.ThroughputMbps(cpb),
		},
		Streaming: p.Streaming,
		IRAMMHz:   d.img.timing.IRAMMHz,
		Gates:     model.Table5(model.Table4(), p.Geometry).Total(),
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
func (d *Device) Describe() string { return d.enc.machine.Array.Describe() }

// Microcode returns the loaded program size in 80-bit instruction words.
func (d *Device) Microcode() int { return len(d.enc.prog.Instrs) }
