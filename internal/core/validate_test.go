package core

import (
	"bytes"
	"context"
	"testing"
)

// TestValidateGateKeepsFastpath pins the Config.Validate gate on the happy
// path: each direction's trace is proven, so Configure and the first
// decrypt succeed and the device round-trips, and Reconfigure carries the
// gate through to the new image (a refusal would be its error).
func TestValidateGateKeepsFastpath(t *testing.T) {
	d, err := Configure(RC6, key, Config{Unroll: 1, Validate: true})
	if err != nil {
		t.Fatal(err)
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

	if err := d.Reconfigure(Serpent, key, Config{Unroll: 1, Validate: true}); err != nil {
		t.Fatal(err)
	}
	if !d.img.cfg.Validate {
		t.Error("Reconfigure dropped the validation gate")
	}
	if _, err := d.EncryptECB(context.Background(), pt); err != nil {
		t.Fatal(err)
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
}
