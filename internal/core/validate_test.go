package core

import (
	"bytes"
	"context"
	"testing"
)

// TestValidateGateKeepsFastpath pins the Config.Validate gate on the happy
// path: a proven trace stays installed in each direction, the device
// encrypts and decrypts on the fastpath, and reconfiguration carries the
// gate through (both the same-geometry reload and the rebuild path
// re-validate the new trace).
func TestValidateGateKeepsFastpath(t *testing.T) {
	d, err := Configure(RC6, key, Config{Unroll: 1, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !d.UsesFastpath() {
		t.Fatalf("proven trace was not installed: %v", d.FastpathErr())
	}
	pt := bytes.Repeat([]byte{0x3c}, 64)
	ct, err := d.EncryptECB(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	back, err := d.DecryptECB(context.Background(), ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Error("decrypt(encrypt(x)) != x under the validation gate")
	}
	if d.dec.fast == nil {
		t.Fatalf("proven decryption trace was not installed: %v", d.dec.err)
	}

	if err := d.Reconfigure(Serpent, key, Config{Unroll: 1, Validate: true}); err != nil {
		t.Fatal(err)
	}
	if !d.img.cfg.Validate {
		t.Error("Reconfigure dropped the validation gate")
	}
	if !d.UsesFastpath() {
		t.Fatalf("proven trace was not installed after Reconfigure: %v", d.FastpathErr())
	}
}

// TestValidateGateOffByDefault pins that the gate is opt-in: the zero
// Config never pays for validation (the field simply stays false).
func TestValidateGateOffByDefault(t *testing.T) {
	d, err := Configure(RC6, key, Config{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.img.cfg.Validate {
		t.Error("validation gate enabled by the zero Config")
	}
	if !d.UsesFastpath() {
		t.Fatalf("fastpath missing: %v", d.FastpathErr())
	}
}
