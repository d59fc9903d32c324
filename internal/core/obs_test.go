package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"cobra/internal/obs"
)

// counterValue digs one sample out of a registry gather; missing series
// fail the test.
func counterValue(t *testing.T, r *obs.Registry, name string, labels ...obs.Label) int64 {
	t.Helper()
	for _, s := range r.Gather() {
		if s.Name != name {
			continue
		}
		if len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for i := range labels {
			if s.Labels[i] != labels[i] {
				match = false
			}
		}
		if match {
			return s.Value
		}
	}
	t.Fatalf("series %s%v not found", name, labels)
	return 0
}

// TestDeviceMetricsWiring checks the single-bookkeeping claim: the
// registry's counters, the Report view, and the engine split all agree
// after real traffic.
func TestDeviceMetricsWiring(t *testing.T) {
	d, err := Configure(Rijndael, key, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.UsesFastpath() {
		t.Fatal("full-unroll Rijndael should trace-compile")
	}
	msg := bytes.Repeat([]byte{0x5A}, 64) // 4 blocks
	iv := make([]byte, 16)
	if _, err := d.EncryptCTR(context.Background(), iv, msg); err != nil {
		t.Fatal(err)
	}
	reg := d.Obs()
	if got := counterValue(t, reg, "cobra_device_requests_total", obs.L("mode", "ctr")); got != 1 {
		t.Errorf("ctr requests = %d, want 1", got)
	}
	if got := counterValue(t, reg, "cobra_device_mode_bytes_total", obs.L("mode", "ctr")); got != 64 {
		t.Errorf("ctr bytes = %d, want 64", got)
	}
	if got := counterValue(t, reg, "cobra_device_engine_blocks_total", obs.L("engine", "fastpath")); got != 4 {
		t.Errorf("fastpath engine blocks = %d, want 4", got)
	}
	if got := counterValue(t, reg, "cobra_device_fastpath_compiles_total"); got != 1 {
		t.Errorf("compiles = %d, want 1", got)
	}
	r := d.Report()
	if r.Backend != "device" || r.Workers != 1 {
		t.Errorf("summary backend/workers = %q/%d, want device/1", r.Backend, r.Workers)
	}
	if r.Stats.BlocksOut != 4 {
		t.Errorf("report BlocksOut = %d, want 4", r.Stats.BlocksOut)
	}
	if got := counterValue(t, reg, "cobra_device_blocks_out_total"); got != int64(r.Stats.BlocksOut) {
		t.Errorf("registry blocks_out %d != report %d: the views diverged", got, r.Stats.BlocksOut)
	}

	// ResetStats rewinds the report, not the exported series.
	before := counterValue(t, reg, "cobra_device_blocks_out_total")
	d.ResetStats()
	if got := d.Report().Stats; got.BlocksOut != 0 || got.Cycles != 0 {
		t.Errorf("ResetStats left report counters: %+v", got)
	}
	if after := counterValue(t, reg, "cobra_device_blocks_out_total"); after != before {
		t.Errorf("ResetStats moved the exported counter %d -> %d; must stay monotonic", before, after)
	}
}

// TestDeviceFallbackAndErrorCounters pins the fallback-reason and error
// series.
func TestDeviceFallbackAndErrorCounters(t *testing.T) {
	d, err := Configure(Rijndael, key, Config{Interpreter: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.EncryptECB(context.Background(), make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	reg := d.Obs()
	if got := counterValue(t, reg, "cobra_device_fastpath_fallbacks_total", obs.L("reason", "forced_interpreter")); got != 1 {
		t.Errorf("forced_interpreter fallbacks = %d, want 1", got)
	}
	if got := counterValue(t, reg, "cobra_device_engine_blocks_total", obs.L("engine", "interpreter")); got != 2 {
		t.Errorf("interpreter engine blocks = %d, want 2", got)
	}
	if _, err := d.EncryptECB(context.Background(), make([]byte, 17)); err == nil {
		t.Fatal("partial block accepted")
	}
	if got := counterValue(t, reg, "cobra_device_errors_total", obs.L("mode", "ecb")); got != 1 {
		t.Errorf("ecb errors = %d, want 1", got)
	}
}

// TestDeviceContextCancelled checks the unified API's cancellation
// contract on the single-device backend.
func TestDeviceContextCancelled(t *testing.T) {
	d, err := Configure(Rijndael, key, Config{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.EncryptECB(ctx, make([]byte, 32)); err != context.Canceled {
		t.Errorf("cancelled EncryptECB err = %v, want context.Canceled", err)
	}
	if _, err := d.EncryptCBC(ctx, make([]byte, 16), make([]byte, 32)); err != context.Canceled {
		t.Errorf("cancelled EncryptCBC err = %v, want context.Canceled", err)
	}
	if _, err := d.DecryptECB(ctx, make([]byte, 32)); err != context.Canceled {
		t.Errorf("cancelled DecryptECB err = %v, want context.Canceled", err)
	}
}

// TestDeviceMetricsAttach checks parent attachment and the Prometheus
// rendering of a device's families (the sim observer rides the same
// registry).
func TestDeviceMetricsAttach(t *testing.T) {
	parent := obs.NewRegistry(obs.L("app", "test"))
	d, err := Configure(RC6, key, Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	parent.Attach(d.Obs())
	if _, err := d.EncryptECB(context.Background(), make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := parent.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"cobra_device_requests_total", "cobra_sim_ticks_total",
		`app="test"`, `alg="rc6"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("parent exposition missing %q", want)
		}
	}
}

// TestReconfigureKeepsRegistry checks that algorithm agility preserves
// the metrics identity: same registry, monotonic counters, info series
// flipped to the new algorithm, report view reset.
func TestReconfigureKeepsRegistry(t *testing.T) {
	d, err := Configure(RC6, key, Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := d.Obs()
	if _, err := d.EncryptECB(context.Background(), make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	before := counterValue(t, reg, "cobra_device_blocks_out_total")
	if before == 0 {
		t.Fatal("no blocks counted before reconfigure")
	}
	if err := d.Reconfigure(Serpent, key, Config{Unroll: 1}); err != nil {
		t.Fatal(err)
	}
	if d.Obs() != reg {
		t.Fatal("reconfigure replaced the device registry")
	}
	if got := d.Report().Stats.BlocksOut; got != 0 {
		t.Errorf("report BlocksOut after reconfigure = %d, want 0", got)
	}
	if _, err := d.EncryptECB(context.Background(), make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if after := counterValue(t, reg, "cobra_device_blocks_out_total"); after < before {
		t.Errorf("exported counter went backwards across reconfigure: %d -> %d", before, after)
	}
	if got := counterValue(t, reg, "cobra_device_info", obs.L("alg", "serpent")); got != 1 {
		t.Errorf("info{alg=serpent} = %d, want 1", got)
	}
	if got := counterValue(t, reg, "cobra_device_info", obs.L("alg", "rc6")); got != 0 {
		t.Errorf("info{alg=rc6} = %d, want 0", got)
	}
}

// TestReconfigureTicksOneConfigurationPhase pins the simulator tick
// accounting of algorithm agility: a Reconfigure runs exactly one
// configuration phase on the device's registry — the same ticks a fresh
// Configure of the target pays — whether the geometry stays (rijndael
// keeps its 20 rows) or changes (rc6 at full unroll needs 40).
func TestReconfigureTicksOneConfigurationPhase(t *testing.T) {
	key2 := bytes.Repeat([]byte{0x5A}, 16)
	for _, tc := range []struct{ from, to Algorithm }{
		{Rijndael, Rijndael},
		{Rijndael, RC6},
		{RC6, Rijndael},
	} {
		t.Run(string(tc.from)+"->"+string(tc.to), func(t *testing.T) {
			fresh, err := Configure(tc.to, key2, Config{})
			if err != nil {
				t.Fatal(err)
			}
			phase := counterValue(t, fresh.Obs(), "cobra_sim_ticks_total")
			if phase == 0 {
				t.Fatal("configuration phase ran no ticks")
			}
			d, err := Configure(tc.from, key, Config{})
			if err != nil {
				t.Fatal(err)
			}
			before := counterValue(t, d.Obs(), "cobra_sim_ticks_total")
			if err := d.Reconfigure(tc.to, key2, Config{}); err != nil {
				t.Fatal(err)
			}
			if got := counterValue(t, d.Obs(), "cobra_sim_ticks_total") - before; got != phase {
				t.Errorf("Reconfigure added %d ticks, want one configuration phase (%d)", got, phase)
			}
		})
	}
}

// TestReconfigureAllocBudget pins the host cost of a farm rebind: a
// same-geometry Reconfigure of full-unroll Rijndael (build, vet, load,
// trace compile and its self-check replay) stays within 5,000 heap
// allocations. Running a whole-program analysis such as package dataflow's
// on every compile multiplies the count several times over and fails here.
func TestReconfigureAllocBudget(t *testing.T) {
	const budget = 5000
	d, err := Configure(Rijndael, key, Config{})
	if err != nil {
		t.Fatal(err)
	}
	key2 := bytes.Repeat([]byte{0x5A}, 16)
	allocs := testing.AllocsPerRun(5, func() {
		if err := d.Reconfigure(Rijndael, key2, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if !d.UsesFastpath() {
		t.Fatal("reconfigured device did not compile a fastpath")
	}
	if allocs > budget {
		t.Errorf("same-geometry Reconfigure: %.0f allocs/op, want <= %d", allocs, budget)
	}
	t.Logf("same-geometry Reconfigure: %.0f allocs/op", allocs)
}

// TestEncryptCTRIntoAllocFree is the device-level zero-allocation gate:
// on a warmed device with an active fastpath, the CTR hot path — counter
// staging, encryption, keystream XOR, and all instrumentation — performs
// no heap allocations (testing.AllocsPerRun runs one warm-up call, which
// grows the device scratch).
func TestEncryptCTRIntoAllocFree(t *testing.T) {
	d, err := Configure(Rijndael, key, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.UsesFastpath() {
		t.Fatal("device did not compile a fastpath")
	}
	ctx := context.Background()
	iv := make([]byte, 16)
	src := make([]byte, 16*64)
	dst := make([]byte, len(src))
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.EncryptCTRInto(ctx, dst, iv, src); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("EncryptCTRInto: %.1f allocs/op, want 0", allocs)
	}
}
