package core

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"cobra/internal/cipher"
	"cobra/internal/program"
)

var key = []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

func TestConfigureAndEncryptAllAlgorithms(t *testing.T) {
	pt := bytes.Repeat([]byte{0xA5}, 64)
	for _, alg := range []Algorithm{RC6, Rijndael, Serpent} {
		d, err := Configure(alg, key, Config{Unroll: 0})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		ct, err := d.EncryptECB(context.Background(), pt)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		back, err := d.DecryptECB(context.Background(), ct)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !bytes.Equal(back, pt) {
			t.Errorf("%s: decrypt(encrypt(x)) != x", alg)
		}
	}
}

func TestEncryptMatchesReferenceCiphers(t *testing.T) {
	pt := bytes.Repeat([]byte{0x3c}, 32)
	for _, alg := range []Algorithm{RC6, Rijndael, Serpent} {
		d, err := Configure(alg, key, Config{Unroll: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.EncryptECB(context.Background(), pt)
		if err != nil {
			t.Fatal(err)
		}
		ref := hostRef(t, alg, key)
		want := make([]byte, len(pt))
		for i := 0; i < len(pt); i += 16 {
			ref.Encrypt(want[i:], pt[i:])
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: device output differs from reference", alg)
		}
	}
}

func TestUnrollDefaultsToFull(t *testing.T) {
	d, err := Configure(Rijndael, key, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Unroll() != cipher.AESRounds {
		t.Errorf("default unroll = %d, want %d", d.Unroll(), cipher.AESRounds)
	}
	r := d.Report()
	if !r.Streaming {
		t.Error("full unroll should stream")
	}
}

func TestReportAfterEncryption(t *testing.T) {
	d, err := Configure(RC6, key, Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.EncryptECB(context.Background(), bytes.Repeat([]byte{1}, 160)); err != nil {
		t.Fatal(err)
	}
	r := d.Report()
	if r.CyclesPerBlock <= 0 || r.ThroughputMbps <= 0 {
		t.Errorf("report not populated: %+v", r)
	}
	if r.Stats.BlocksOut != 10 {
		t.Errorf("blocks out = %d, want 10", r.Stats.BlocksOut)
	}
	if r.Gates < 6_000_000 {
		t.Errorf("base geometry gates = %d, implausible", r.Gates)
	}
	if r.DatapathMHz <= 0 || r.IRAMMHz != 2*r.DatapathMHz {
		t.Errorf("clock model wrong: %+v", r)
	}
	d.ResetStats()
	if d.Report().Stats.Cycles != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestReconfigureSameGeometryKeepsMachine(t *testing.T) {
	// RC6-2 and Rijndael-2 both target the base 4-row array: algorithm
	// agility without re-tiling.
	d, err := Configure(RC6, key, Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := d.Geometry().Rows
	if err := d.Reconfigure(Rijndael, key, Config{Unroll: 2}); err != nil {
		t.Fatal(err)
	}
	if d.Geometry().Rows != rows {
		t.Error("geometry changed unexpectedly")
	}
	if d.Algorithm() != Rijndael {
		t.Errorf("algorithm = %s", d.Algorithm())
	}
	pt := bytes.Repeat([]byte{9}, 16)
	got, err := d.EncryptECB(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := cipher.NewRijndael(key)
	want := make([]byte, 16)
	ref.Encrypt(want, pt)
	if !bytes.Equal(got, want) {
		t.Error("post-reconfigure ciphertext wrong")
	}
}

func TestReconfigureDifferentGeometryRebuilds(t *testing.T) {
	d, err := Configure(RC6, key, Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Reconfigure(Serpent, key, Config{Unroll: 8}); err != nil {
		t.Fatal(err)
	}
	if d.Geometry().Rows != 32 {
		t.Errorf("rows = %d, want 32", d.Geometry().Rows)
	}
}

// hostRef is the registry's host reference cipher for alg under key.
func hostRef(t *testing.T, alg Algorithm, key []byte) cipher.Block {
	t.Helper()
	s, err := program.Lookup(string(alg))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Reference(key)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestConfigureServesSixteenByteCiphers walks the cipher registry: a
// device serves every 16-byte-block cipher and refuses every 8-byte one.
func TestConfigureServesSixteenByteCiphers(t *testing.T) {
	var served []Algorithm
	for _, s := range program.Specs() {
		alg := Algorithm(s.Name)
		d, err := Configure(alg, key, Config{Unroll: 1})
		if s.BlockSize != 16 {
			if err == nil {
				t.Errorf("%s: configured a %d-byte-block cipher", alg, s.BlockSize)
			}
			if _, err := alg.TotalRounds(); err == nil {
				t.Errorf("%s: TotalRounds accepted a %d-byte-block cipher", alg, s.BlockSize)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", alg, err)
			continue
		}
		if d.Algorithm() != alg || d.BlockSize() != 16 {
			t.Errorf("%s: device reports %s with %d-byte blocks", alg, d.Algorithm(), d.BlockSize())
		}
		served = append(served, alg)
	}
	if want := []Algorithm{RC6, Rijndael, Serpent}; !slices.Equal(served, want) {
		t.Errorf("device serves %v, want %v", served, want)
	}
}

func TestConfigureErrors(t *testing.T) {
	if _, err := Configure(Algorithm("des"), key, Config{}); err == nil {
		t.Error("expected error for unmapped algorithm")
	}
	if _, err := Configure(RC6, make([]byte, 5), Config{}); err == nil {
		t.Error("expected key size error")
	}
	if _, err := Configure(RC6, key, Config{Unroll: 3}); err == nil {
		t.Error("expected unroll error")
	}
	if _, err := (Algorithm("des")).TotalRounds(); err == nil {
		t.Error("expected TotalRounds error")
	}
}

func TestDecryptRejectsPartialBlock(t *testing.T) {
	d, err := Configure(Rijndael, key, Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DecryptECB(context.Background(), make([]byte, 17)); err == nil {
		t.Error("expected partial-block error")
	}
}

func TestDescribeAndMicrocode(t *testing.T) {
	d, err := Configure(Serpent, key, Config{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Describe() == "" {
		t.Error("empty description")
	}
	if d.Microcode() == 0 {
		t.Error("no microcode")
	}
	if d.BlockSize() != 16 {
		t.Error("block size")
	}
}

func TestDatapathDecryptionAllAlgorithms(t *testing.T) {
	// DecryptECB runs on the datapath (not the host reference); it must
	// invert the datapath encryption, whose ciphertext must match the
	// registry's host reference cipher.
	pt := bytes.Repeat([]byte{0x77, 0x31}, 24)
	for _, alg := range []Algorithm{RC6, Rijndael, Serpent} {
		d, err := Configure(alg, key, Config{Unroll: 2})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := d.EncryptECB(context.Background(), pt)
		if err != nil {
			t.Fatal(err)
		}
		ref := hostRef(t, alg, key)
		want := make([]byte, len(pt))
		for i := 0; i < len(pt); i += 16 {
			ref.Encrypt(want[i:], pt[i:])
		}
		if !bytes.Equal(ct, want) {
			t.Errorf("%s: datapath ciphertext differs from the host reference", alg)
		}
		got, err := d.DecryptECB(context.Background(), ct)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !bytes.Equal(got, pt) {
			t.Errorf("%s: datapath decryption does not invert encryption", alg)
		}
	}
}

func TestReconfigureInvalidatesDecryptor(t *testing.T) {
	pt := bytes.Repeat([]byte{0x5a}, 16)
	d, err := Configure(RC6, key, Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	ct1, err := d.EncryptECB(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DecryptECB(context.Background(), ct1); err != nil {
		t.Fatal(err)
	}
	key2 := bytes.Repeat([]byte{9}, 16)
	if err := d.Reconfigure(Rijndael, key2, Config{Unroll: 2}); err != nil {
		t.Fatal(err)
	}
	ct2, err := d.EncryptECB(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.DecryptECB(context.Background(), ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Error("decryptor not rebuilt after reconfiguration")
	}
}

func TestCBCModeRoundTripAndChaining(t *testing.T) {
	d, err := Configure(Rijndael, key, Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	iv := bytes.Repeat([]byte{0xAB}, 16)
	pt := bytes.Repeat([]byte{0x00}, 48) // identical plaintext blocks
	ct, err := d.EncryptCBC(context.Background(), iv, pt)
	if err != nil {
		t.Fatal(err)
	}
	// Chaining must make identical plaintext blocks encrypt differently.
	if bytes.Equal(ct[0:16], ct[16:32]) {
		t.Error("CBC produced identical ciphertext blocks")
	}
	// Reference CBC over the reference cipher.
	ref, _ := cipher.NewRijndael(key)
	want := make([]byte, len(pt))
	prev := iv
	var x [16]byte
	for i := 0; i < len(pt); i += 16 {
		for j := 0; j < 16; j++ {
			x[j] = pt[i+j] ^ prev[j]
		}
		ref.Encrypt(want[i:], x[:])
		prev = want[i : i+16]
	}
	if !bytes.Equal(ct, want) {
		t.Error("CBC ciphertext differs from reference chaining")
	}
	back, err := d.DecryptCBC(context.Background(), iv, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Error("CBC round trip failed")
	}
}

func TestCBCArgumentValidation(t *testing.T) {
	d, err := Configure(Rijndael, key, Config{Unroll: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.EncryptCBC(context.Background(), make([]byte, 8), make([]byte, 16)); err == nil {
		t.Error("expected iv error")
	}
	if _, err := d.EncryptCBC(context.Background(), make([]byte, 16), make([]byte, 17)); err == nil {
		t.Error("expected length error")
	}
	if _, err := d.DecryptCBC(context.Background(), make([]byte, 8), make([]byte, 16)); err == nil {
		t.Error("expected iv error")
	}
}
