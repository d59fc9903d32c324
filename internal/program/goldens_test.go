package program_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"cobra/internal/bits"
	"cobra/internal/program"
)

// goldenVector is one known-answer line from testdata/vectors.txt. The
// 128-bit-block ciphers carry 16-byte plaintext/ciphertext; the 64-bit
// corpus carries 8-byte fields that the test marshals into superblocks.
type goldenVector struct {
	cipher string
	key    []byte
	pt     []byte
	ct     []byte
}

func loadGoldenVectors(t *testing.T) []goldenVector {
	t.Helper()
	f, err := os.Open("testdata/vectors.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var vecs []goldenVector
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			t.Fatalf("vectors.txt:%d: want 4 fields, got %d", line, len(fields))
		}
		unhex := func(s string) []byte {
			b, err := hex.DecodeString(s)
			if err != nil {
				t.Fatalf("vectors.txt:%d: bad hex %q: %v", line, s, err)
			}
			return b
		}
		pt, ct := unhex(fields[2]), unhex(fields[3])
		if len(pt) != len(ct) || (len(pt) != 16 && len(pt) != 8) {
			t.Fatalf("vectors.txt:%d: plaintext/ciphertext must be one 8- or 16-byte block", line)
		}
		vecs = append(vecs, goldenVector{
			cipher: fields[0],
			key:    unhex(fields[1]),
			pt:     pt,
			ct:     ct,
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(vecs) == 0 {
		t.Fatal("vectors.txt: no vectors")
	}
	return vecs
}

// TestGoldenVectors runs every published (or pinned) known-answer vector
// through both execution engines — the cycle-accurate interpreter and the
// trace-compiled fastpath executor — at every legal unroll depth of the
// vector's cipher (and windowed Serpent). A divergence in either engine,
// at any depth, fails against an external reference rather than merely
// against the other engine. A 64-bit vector is packed with its cipher's
// superblock convention; the paired mappings carry it in both lanes.
func TestGoldenVectors(t *testing.T) {
	for i, v := range loadGoldenVectors(t) {
		t.Run(fmt.Sprintf("%s-%d", v.cipher, i), func(t *testing.T) {
			// The Serpent vectors pin the COBRA S-box-domain variant that
			// the registry's serpent entry maps, not official Serpent.
			name := v.cipher
			if name == "serpentcobra" {
				name = "serpent"
			}
			s, err := program.Lookup(name)
			if err != nil {
				t.Fatalf("vectors.txt: %v", err)
			}
			if len(v.pt) != s.BlockSize {
				t.Fatalf("%s vector has %d-byte blocks, want %d", name, len(v.pt), s.BlockSize)
			}
			sb, err := s.Pack(bytes.Repeat(v.pt, s.BlocksPerSuperblock))
			if err != nil {
				t.Fatal(err)
			}
			in := []bits.Block128{bits.LoadBlock128(sb)}
			want := bytes.Repeat(v.ct, s.BlocksPerSuperblock)
			check := func(p *program.Program, engine string, got bits.Block128) {
				t.Helper()
				got.StoreBlock128(sb)
				ct, err := s.Unpack(sb)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ct, want) {
					t.Errorf("%s: %s ciphertext %x, want %x", p.Name, engine, ct, want)
				}
			}
			progs := make([]*program.Program, 0, len(s.Depths)+1)
			for _, hw := range s.Depths {
				p, err := s.Build(v.key, hw)
				if err != nil {
					t.Fatalf("%s-%d: build: %v", name, hw, err)
				}
				progs = append(progs, p)
			}
			if name == "serpent" {
				p, err := program.BuildSerpentWindowed(v.key, 4)
				if err != nil {
					t.Fatal(err)
				}
				progs = append(progs, p)
			}
			for _, p := range progs {
				m, err := program.NewMachine(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := program.Load(m, p); err != nil {
					t.Fatal(err)
				}
				got := make([]bits.Block128, 1)
				if _, err := program.Run(m, p, got, in, program.Opts{}); err != nil {
					t.Fatalf("%s: interpreter: %v", p.Name, err)
				}
				check(p, "interpreter", got[0])
				ex, err := p.Compile()
				if err != nil {
					t.Fatalf("%s: compile: %v", p.Name, err)
				}
				got[0] = bits.Block128{}
				if _, err := ex.EncryptInto(got, in); err != nil {
					t.Fatalf("%s: fastpath: %v", p.Name, err)
				}
				check(p, "fastpath", got[0])
			}
		})
	}
}
