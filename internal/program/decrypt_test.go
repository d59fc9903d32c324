package program

import (
	"bytes"
	"testing"
	"testing/quick"

	"cobra/internal/cipher"
)

// refDecryptECB decrypts with a reference cipher block-by-block.
func refDecryptECB(t *testing.T, c cipher.Block, src []byte) []byte {
	t.Helper()
	dst := make([]byte, len(src))
	for i := 0; i < len(src); i += c.BlockSize() {
		c.Decrypt(dst[i:], src[i:])
	}
	return dst
}

func TestRC6DecryptOnCOBRAAllUnrolls(t *testing.T) {
	ref, err := cipher.NewRC6(testKey)
	if err != nil {
		t.Fatal(err)
	}
	ct := refEncryptECB(t, ref, testPlain)
	for _, hw := range []int{1, 2, 4, 5, 10, 20} {
		p, err := BuildRC6Decrypt(testKey, hw, cipher.RC6Rounds)
		if err != nil {
			t.Fatalf("rc6-dec-%d: %v", hw, err)
		}
		got, stats := cobraEncryptECB(t, p, ct)
		if !bytes.Equal(got, testPlain) {
			t.Errorf("rc6-dec-%d: decryption mismatch\n got %x\nwant %x", hw, got, testPlain)
		}
		t.Logf("rc6-dec-%d: %.1f cycles/block", hw,
			float64(stats.Cycles)/float64(stats.BlocksOut))
	}
}

func TestRijndaelDecryptOnCOBRAAllUnrolls(t *testing.T) {
	ref, err := cipher.NewRijndael(testKey)
	if err != nil {
		t.Fatal(err)
	}
	ct := refEncryptECB(t, ref, testPlain)
	for _, hw := range []int{1, 2, 5, 10} {
		p, err := BuildRijndaelDecrypt(testKey, hw)
		if err != nil {
			t.Fatalf("rijndael-dec-%d: %v", hw, err)
		}
		got, _ := cobraEncryptECB(t, p, ct)
		if !bytes.Equal(got, testPlain) {
			t.Errorf("rijndael-dec-%d: decryption mismatch\n got %x\nwant %x", hw, got, testPlain)
		}
	}
}

func TestSerpentDecryptOnCOBRA(t *testing.T) {
	ref, err := cipher.NewSerpentCOBRA(testKey)
	if err != nil {
		t.Fatal(err)
	}
	ct := refEncryptECB(t, ref, testPlain)
	p, err := BuildSerpentDecrypt(testKey)
	if err != nil {
		t.Fatal(err)
	}
	got, stats := cobraEncryptECB(t, p, ct)
	if !bytes.Equal(got, testPlain) {
		t.Errorf("serpent-dec: decryption mismatch\n got %x\nwant %x", got, testPlain)
	}
	t.Logf("serpent-dec-1: %.1f cycles/block", float64(stats.Cycles)/float64(stats.BlocksOut))
}

// TestDatapathRoundTrip pushes blocks through the encryption datapath and
// back through the decryption datapath — both directions entirely in
// microcode.
func TestDatapathRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		enc, dec func() (*Program, error)
	}{
		{"rc6", func() (*Program, error) { return BuildRC6(testKey, 2, cipher.RC6Rounds) },
			func() (*Program, error) { return BuildRC6Decrypt(testKey, 2, cipher.RC6Rounds) }},
		{"rijndael", func() (*Program, error) { return BuildRijndael(testKey, 2) },
			func() (*Program, error) { return BuildRijndaelDecrypt(testKey, 2) }},
		{"serpent", func() (*Program, error) { return BuildSerpent(testKey, 1) },
			func() (*Program, error) { return BuildSerpentDecrypt(testKey) }},
	}
	for _, c := range cases {
		pe, err := c.enc()
		if err != nil {
			t.Fatal(err)
		}
		pd, err := c.dec()
		if err != nil {
			t.Fatal(err)
		}
		ct, _ := cobraEncryptECB(t, pe, testPlain)
		pt, _ := cobraEncryptECB(t, pd, ct)
		if !bytes.Equal(pt, testPlain) {
			t.Errorf("%s: datapath round trip failed", c.name)
		}
	}
}

// desSwap mirrors DES's host boundary between two datapaths: it swaps
// the halves of every superblock (the Feistel swap-undo folded into
// FP∘IP). Other ciphers pass through.
func desSwap(name string, sbs []byte) []byte {
	if name != "des" {
		return sbs
	}
	out := make([]byte, len(sbs))
	copy(out, sbs)
	for i := 0; i < len(out); i += 16 {
		for j := 0; j < 4; j++ {
			out[i+j], out[i+4+j] = out[i+4+j], out[i+j]
		}
	}
	return out
}

// TestDatapathRoundTrip64 drives the 64-bit-cipher corpus through its
// encryption and decryption datapaths at every supported unroll depth,
// pairing each encryptor depth with each decryptor depth so iterative and
// streaming forms cross-check each other. Only the payload words are
// compared: the scratch lanes of the one-block-per-superblock mappings
// legitimately carry round intermediates.
func TestDatapathRoundTrip64(t *testing.T) {
	payload := func(paired bool, sbs []byte) []byte {
		if paired {
			return sbs
		}
		out := make([]byte, 0, len(sbs)/2)
		for i := 0; i < len(sbs); i += 16 {
			out = append(out, sbs[i:i+8]...)
		}
		return out
	}
	for _, s := range Specs() {
		if s.BlockSize != 8 {
			continue
		}
		paired := s.BlocksPerSuperblock == 2
		for _, eh := range s.Depths {
			pe, err := s.Build(testKey, eh)
			if err != nil {
				t.Fatalf("%s-%d: %v", s.Name, eh, err)
			}
			ct, _ := cobraEncryptECB(t, pe, testPlain)
			ct = desSwap(s.Name, ct)
			for _, dh := range s.DecryptDepths {
				pd, err := s.BuildDecrypt(testKey, dh)
				if err != nil {
					t.Fatalf("%s-dec-%d: %v", s.Name, dh, err)
				}
				pt, _ := cobraEncryptECB(t, pd, ct)
				pt = desSwap(s.Name, pt)
				if !bytes.Equal(payload(paired, pt), payload(paired, testPlain)) {
					t.Errorf("%s: enc depth %d / dec depth %d round trip failed",
						s.Name, eh, dh)
				}
			}
		}
	}
}

func TestRC6DecryptRandomized(t *testing.T) {
	f := func(key [16]byte, ctRaw [16]byte) bool {
		ref, err := cipher.NewRC6(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, 16)
		ref.Decrypt(want, ctRaw[:])
		p, err := BuildRC6Decrypt(key[:], 4, cipher.RC6Rounds)
		if err != nil {
			return false
		}
		m, err := NewMachine(p)
		if err != nil {
			return false
		}
		if err := Load(m, p); err != nil {
			return false
		}
		got := make([]byte, len(ctRaw))
		_, err = RunBytes(m, p, got, ctRaw[:], Opts{})
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDecryptUnrollValidation(t *testing.T) {
	if _, err := BuildRC6Decrypt(testKey, 3, cipher.RC6Rounds); err == nil {
		t.Error("expected unroll error")
	}
	if _, err := BuildRijndaelDecrypt(testKey, 4); err == nil {
		t.Error("expected unroll error")
	}
	if _, err := BuildSerpentDecrypt(make([]byte, 5)); err == nil {
		t.Error("expected key error")
	}
}
