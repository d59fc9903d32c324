package farm

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"cobra/internal/cipher"
	"cobra/internal/core"
	"cobra/internal/obs"
	"cobra/internal/program"
)

// sumFamily adds up every series of one family on r: on the pool's
// registry, the worker devices and the kept probe.
func sumFamily(r *obs.Registry, name string) int64 {
	var n int64
	for _, s := range r.Gather() {
		if s.Name == name {
			n += s.Value
		}
	}
	return n
}

// refDecryptCBC is CBC decryption over the host reference cipher.
func refDecryptCBC(ref cipher.Block, iv, src []byte) []byte {
	out := make([]byte, len(src))
	prev := iv
	for i := 0; i < len(src); i += 16 {
		ref.Decrypt(out[i:], src[i:])
		for j := 0; j < 16; j++ {
			out[i+j] ^= prev[j]
		}
		prev = src[i : i+16]
	}
	return out
}

// TestPoolRebindLoadsTenantImage runs the end-to-end benchmark's
// multi-tenant shape on two workers: rijndael under key A and A⊕0x5A and
// rc6 under A⊕0xA5, at full unroll. Each tenant decrypts one CBC message,
// then the three call CTR at once, every output checked against the host
// reference. Three programs on two workers force reconfigurations, and a
// reconfiguration loads the tenant's image: across the pool's registry
// one encryption trace is compiled per tenant opened and one decryption
// trace per tenant that decrypted, and each reconfiguration adds exactly
// one configuration phase of its target program to cobra_sim_ticks_total
// (the ticks a freshly configured device of the target counts).
func TestPoolRebindLoadsTenantImage(t *testing.T) {
	p, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	type tenant struct {
		f     *Farm
		ref   cipher.Block
		phase int64
	}
	tenants := map[*Farm]*tenant{}
	var order []*tenant
	for _, c := range []struct {
		alg core.Algorithm
		x   byte
	}{{core.Rijndael, 0}, {core.Rijndael, 0x5A}, {core.RC6, 0xA5}} {
		k := bytes.Clone(key)
		for i := range k {
			k[i] ^= c.x
		}
		f, err := p.Open(c.alg, k, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := program.Lookup(string(c.alg))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := s.Reference(k)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.Configure(c.alg, k, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		tn := &tenant{f: f, ref: ref, phase: sumFamily(d.Obs(), "cobra_sim_ticks_total")}
		tenants[f] = tn
		order = append(order, tn)
	}

	// Every job that switches a worker's device, or configures its first,
	// runs one configuration phase of the job's tenant.
	var mu sync.Mutex
	var switches, wantTicks int64
	for _, w := range p.workers {
		w.fault = func(j *job) error {
			p.mu.Lock()
			cold, hit := w.dev == nil, w.loadedSet && w.loaded == j.tn.pk
			p.mu.Unlock()
			if cold || !hit {
				mu.Lock()
				if !cold {
					switches++
				}
				wantTicks += tenants[j.tn].phase
				mu.Unlock()
			}
			return nil
		}
	}

	run := func(call func(tn *tenant) error) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, len(order))
		for i, tn := range order {
			wg.Add(1)
			go func(i int, tn *tenant) {
				defer wg.Done()
				errs[i] = call(tn)
			}(i, tn)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("tenant %d: %v", i, err)
			}
		}
	}
	iv := bytes.Repeat([]byte{0x42}, 16)
	run(func(tn *tenant) error {
		ct := testMessage(16 * 24)
		got, err := tn.f.DecryptCBC(context.Background(), iv, ct)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, refDecryptCBC(tn.ref, iv, ct)) {
			return fmt.Errorf("CBC decryption differs from the host reference")
		}
		return nil
	})

	mu.Lock()
	switches0, wantTicks0 := switches, wantTicks
	mu.Unlock()
	reconfigs0, ticks0 := p.met.reconfigs.Value(), sumFamily(p.reg, "cobra_sim_ticks_total")
	run(func(tn *tenant) error {
		for i := 0; i < 6; i++ {
			msg := testMessage(16*40 + 7*i)
			got, err := tn.f.EncryptCTR(context.Background(), iv, msg)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, refCTR(t, tn.ref, iv, msg)) {
				return fmt.Errorf("CTR call %d differs from the host reference", i)
			}
		}
		return nil
	})

	reconfigs := p.met.reconfigs.Value() - reconfigs0
	if reconfigs == 0 {
		t.Fatal("three programs calling at once on two workers paid no reconfiguration")
	}
	t.Logf("%d reconfigurations while the tenants called CTR", reconfigs)
	if reconfigs != switches-switches0 {
		t.Errorf("cobra_farm_reconfigures_total moved %d, but %d jobs switched a device", reconfigs, switches-switches0)
	}
	if got, want := sumFamily(p.reg, "cobra_sim_ticks_total")-ticks0, wantTicks-wantTicks0; got != want {
		t.Errorf("%d reconfigurations added %d ticks, want one configuration phase of each target (%d)", reconfigs, got, want)
	}
	if got, want := sumFamily(p.reg, "cobra_device_fastpath_compiles_total"), int64(2*len(order)); got != want {
		t.Errorf("pool compiled %d traces, want %d: one per tenant opened and one per tenant that decrypted", got, want)
	}
	if sumFamily(p.reg, "cobra_device_fastpath_installs_total") == 0 {
		t.Error("no worker installed a trace from a tenant's image")
	}
}
