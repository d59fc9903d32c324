package program

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"cobra/internal/cipher"
	"cobra/internal/sim"
)

// refEncryptECB encrypts src with a reference cipher block-by-block.
func refEncryptECB(t *testing.T, c cipher.Block, src []byte) []byte {
	t.Helper()
	dst := make([]byte, len(src))
	for i := 0; i < len(src); i += c.BlockSize() {
		c.Encrypt(dst[i:], src[i:])
	}
	return dst
}

// cobraEncryptECB builds, loads and runs a program over src.
func cobraEncryptECB(t *testing.T, p *Program, src []byte) ([]byte, sim.Stats) {
	t.Helper()
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(m, p); err != nil {
		t.Fatalf("%s: load: %v", p.Name, err)
	}
	out := make([]byte, len(src))
	stats, err := RunBytes(m, p, out, src, Opts{})
	if err != nil {
		t.Fatalf("%s: encrypt: %v", p.Name, err)
	}
	return out, stats
}

var testKey = func() []byte {
	k, _ := hex.DecodeString("000102030405060708090a0b0c0d0e0f")
	return k
}()

var testPlain = func() []byte {
	p, _ := hex.DecodeString("00112233445566778899aabbccddeeff" +
		"0f0e0d0c0b0a09080706050403020100" +
		"deadbeefcafebabe0123456789abcdef" +
		"00000000000000000000000000000000")
	return p
}()

// --- RC6 ----------------------------------------------------------------------

func TestRC6OnCOBRAAllUnrolls(t *testing.T) {
	ref, err := cipher.NewRC6(testKey)
	if err != nil {
		t.Fatal(err)
	}
	want := refEncryptECB(t, ref, testPlain)
	for _, hw := range []int{1, 2, 4, 5, 10, 20} {
		p, err := BuildRC6(testKey, hw, cipher.RC6Rounds)
		if err != nil {
			t.Fatalf("rc6-%d: %v", hw, err)
		}
		got, stats := cobraEncryptECB(t, p, testPlain)
		if !bytes.Equal(got, want) {
			t.Errorf("rc6-%d: ciphertext mismatch\n got %x\nwant %x", hw, got, want)
		}
		if stats.Cycles == 0 || stats.BlocksOut != len(testPlain)/16 {
			t.Errorf("rc6-%d: implausible stats %+v", hw, stats)
		}
		t.Logf("rc6-%d: %d cycles for %d blocks (%.1f/blk)",
			hw, stats.Cycles, stats.BlocksOut, float64(stats.Cycles)/float64(stats.BlocksOut))
	}
}

func TestRC6OnCOBRARandomized(t *testing.T) {
	f := func(key [16]byte, pt [16]byte) bool {
		ref, err := cipher.NewRC6(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, 16)
		ref.Encrypt(want, pt[:])
		p, err := BuildRC6(key[:], 2, cipher.RC6Rounds)
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
		got := make([]byte, len(pt))
		_, err = RunBytes(m, p, got, pt[:], Opts{})
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRC6UnrollRejectsBadDepth(t *testing.T) {
	if _, err := BuildRC6(testKey, 3, cipher.RC6Rounds); err == nil {
		t.Error("expected error: 3 does not divide 20")
	}
	if _, err := BuildRC6(testKey, 0, cipher.RC6Rounds); err == nil {
		t.Error("expected error for depth 0")
	}
	if _, err := BuildRC6(make([]byte, 5), 2, cipher.RC6Rounds); err == nil {
		t.Error("expected key size error")
	}
}

// --- Rijndael -------------------------------------------------------------------

func TestRijndaelOnCOBRAAllUnrolls(t *testing.T) {
	ref, err := cipher.NewRijndael(testKey)
	if err != nil {
		t.Fatal(err)
	}
	want := refEncryptECB(t, ref, testPlain)
	for _, hw := range []int{1, 2, 5, 10} {
		p, err := BuildRijndael(testKey, hw)
		if err != nil {
			t.Fatalf("rijndael-%d: %v", hw, err)
		}
		got, stats := cobraEncryptECB(t, p, testPlain)
		if !bytes.Equal(got, want) {
			t.Errorf("rijndael-%d: ciphertext mismatch\n got %x\nwant %x", hw, got, want)
		}
		t.Logf("rijndael-%d: %d cycles for %d blocks (%.1f/blk)",
			hw, stats.Cycles, stats.BlocksOut, float64(stats.Cycles)/float64(stats.BlocksOut))
	}
}

func TestRijndaelOnCOBRAMatchesFIPSVector(t *testing.T) {
	// The COBRA datapath must reproduce the FIPS-197 example end to end.
	pt, _ := hex.DecodeString("00112233445566778899aabbccddeeff")
	want, _ := hex.DecodeString("69c4e0d86a7b0430d8cdb78070b4c55a")
	p, err := BuildRijndael(testKey, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := cobraEncryptECB(t, p, pt)
	if !bytes.Equal(got, want) {
		t.Errorf("got %x, want %x", got, want)
	}
}

// --- Serpent --------------------------------------------------------------------

func TestSerpentOnCOBRAAllUnrolls(t *testing.T) {
	ref, err := cipher.NewSerpentCOBRA(testKey)
	if err != nil {
		t.Fatal(err)
	}
	want := refEncryptECB(t, ref, testPlain)
	for _, hw := range []int{1, 2, 4, 8, 16, 32} {
		p, err := BuildSerpent(testKey, hw)
		if err != nil {
			t.Fatalf("serpent-%d: %v", hw, err)
		}
		got, stats := cobraEncryptECB(t, p, testPlain)
		if !bytes.Equal(got, want) {
			t.Errorf("serpent-%d: ciphertext mismatch\n got %x\nwant %x", hw, got, want)
		}
		t.Logf("serpent-%d: %d cycles for %d blocks (%.1f/blk)",
			hw, stats.Cycles, stats.BlocksOut, float64(stats.Cycles)/float64(stats.BlocksOut))
	}
}

func TestSerpentOnCOBRARandomized(t *testing.T) {
	f := func(key [16]byte, pt [16]byte) bool {
		ref, err := cipher.NewSerpentCOBRA(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, 16)
		ref.Encrypt(want, pt[:])
		p, err := BuildSerpent(key[:], 1)
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
		got := make([]byte, len(pt))
		_, err = RunBytes(m, p, got, pt[:], Opts{})
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// --- Cross-cutting ----------------------------------------------------------------

func TestCyclesDecreaseWithUnrolling(t *testing.T) {
	// Table 3's central trend: deeper unrolling costs fewer cycles/block.
	perBlock := func(p *Program) float64 {
		t.Helper()
		_, stats := cobraEncryptECB(t, p, testPlain)
		return float64(stats.Cycles) / float64(stats.BlocksOut)
	}
	var last float64 = 1 << 30
	for _, hw := range []int{1, 2, 4, 10, 20} {
		p, err := BuildRC6(testKey, hw, cipher.RC6Rounds)
		if err != nil {
			t.Fatal(err)
		}
		cpb := perBlock(p)
		if cpb >= last {
			t.Errorf("rc6-%d: %.1f cycles/block not below previous %.1f", hw, cpb, last)
		}
		last = cpb
	}
}

func TestProgramsFitIRAM(t *testing.T) {
	builds := []func() (*Program, error){
		func() (*Program, error) { return BuildRC6(testKey, 20, cipher.RC6Rounds) },
		func() (*Program, error) { return BuildRijndael(testKey, 10) },
		func() (*Program, error) { return BuildSerpent(testKey, 32) },
		func() (*Program, error) { return BuildSerpent(testKey, 1) },
	}
	for _, mk := range builds {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Instrs) > 4096 {
			t.Errorf("%s: %d instructions exceed the iRAM", p.Name, len(p.Instrs))
		}
		t.Logf("%s: %d instructions, %d rows", p.Name, len(p.Instrs), p.Geometry.Rows)
	}
}

func TestEncryptBytesRejectsPartialBlocks(t *testing.T) {
	p, err := BuildRijndael(testKey, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(m, p); err != nil {
		t.Fatal(err)
	}
	if _, err := RunBytes(m, p, make([]byte, 15), make([]byte, 15), Opts{}); err == nil {
		t.Error("expected error for partial block")
	}
}

func TestEncryptEmptyInput(t *testing.T) {
	p, err := BuildRijndael(testKey, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(m, p); err != nil {
		t.Fatal(err)
	}
	stats, err := Run(m, p, nil, nil, Opts{})
	if err != nil || stats != (sim.Stats{}) {
		t.Errorf("empty input: stats=%+v err=%v", stats, err)
	}
}

func TestReloadBetweenKeys(t *testing.T) {
	// Algorithm agility: the same machine geometry reprograms for a new
	// key (and a different cipher with matching geometry).
	key2 := bytes.Repeat([]byte{0x42}, 16)
	p1, err := BuildRC6(testKey, 2, cipher.RC6Rounds)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildRijndael(key2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(m, p1); err != nil {
		t.Fatal(err)
	}
	pt := testPlain[:16]
	got1 := make([]byte, len(pt))
	_, err = RunBytes(m, p1, got1, pt, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(m, p2); err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, len(pt))
	_, err = RunBytes(m, p2, got2, pt, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	ref1, _ := cipher.NewRC6(testKey)
	ref2, _ := cipher.NewRijndael(key2)
	want1 := refEncryptECB(t, ref1, pt)
	want2 := refEncryptECB(t, ref2, pt)
	if !bytes.Equal(got1, want1) || !bytes.Equal(got2, want2) {
		t.Error("reprogrammed machine produced wrong ciphertext")
	}
}

// TestStreamingMachineReuse is the regression test for the in-flight-flush
// bug: repeated Encrypt calls on a streaming machine must each produce the
// correct ciphertext (the machine reloads to a clean pipeline).
func TestStreamingMachineReuse(t *testing.T) {
	ref, err := cipher.NewRijndael(testKey)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildRijndael(testKey, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(m, p); err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 3; call++ {
		pt := bytes.Repeat([]byte{byte(call + 1)}, 32)
		got := make([]byte, len(pt))
		_, err = RunBytes(m, p, got, pt, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		want := refEncryptECB(t, ref, pt)
		if !bytes.Equal(got, want) {
			t.Fatalf("call %d: streaming reuse produced wrong ciphertext", call)
		}
	}
}

// TestIterativeMachineReuseNoReload checks the cheap path: iterative
// programs return to the idle point, so repeated calls need no reload and
// counters accumulate.
func TestIterativeMachineReuseNoReload(t *testing.T) {
	p, err := BuildRijndael(testKey, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(m, p); err != nil {
		t.Fatal(err)
	}
	pt := bytes.Repeat([]byte{7}, 16)
	if _, err := RunBytes(m, p, make([]byte, len(pt)), pt, Opts{}); err != nil {
		t.Fatal(err)
	}
	c1 := m.Stats().Cycles
	if _, err := RunBytes(m, p, make([]byte, len(pt)), pt, Opts{}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Cycles <= c1 {
		t.Error("iterative counters should accumulate across calls")
	}
}
