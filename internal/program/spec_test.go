package program

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestLookupRejectsUnknownName(t *testing.T) {
	for _, name := range []string{"", "idea", "RC6", "serpentcobra"} {
		s, err := Lookup(name)
		if err == nil || s != nil {
			t.Errorf("Lookup(%q) = %v, %v; want an error", name, s, err)
			continue
		}
		// The error lists the known names, so a CLI can print it as is.
		if !strings.Contains(err.Error(), strings.Join(Names(), ", ")) {
			t.Errorf("Lookup(%q) error %q does not list the registry", name, err)
		}
	}
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Specs() {
		if s.Name == "" || seen[s.Name] {
			t.Errorf("empty or duplicate cipher name %q", s.Name)
		}
		seen[s.Name] = true
		if got, err := Lookup(s.Name); err != nil || got != s {
			t.Errorf("Lookup(%q) = %v, %v; want the registry entry", s.Name, got, err)
		}
	}
	if len(seen) != 8 {
		t.Errorf("registry holds %d ciphers, want the 8 mapped ones", len(seen))
	}
}

// direction is one of a spec's builders with the depths it lists.
type direction struct {
	name   string
	build  func([]byte, int) (*Program, error)
	depths []int
}

func directions(s *Spec) []direction {
	return []direction{{"encrypt", s.Build, s.Depths}, {"decrypt", s.BuildDecrypt, s.DecryptDepths}}
}

// TestRegistryBuildsEveryDepth builds every listed depth in both
// directions with every listed key size, and checks the programs carry the
// spec's name, round count and depth.
func TestRegistryBuildsEveryDepth(t *testing.T) {
	for _, s := range Specs() {
		if s.BlockSize*s.BlocksPerSuperblock > 16 {
			t.Errorf("%s: %d blocks of %d bytes do not fit a superblock", s.Name, s.BlocksPerSuperblock, s.BlockSize)
		}
		if len(s.Depths) == 0 || !slices.IsSorted(s.Depths) {
			t.Errorf("%s: depths %v not ascending", s.Name, s.Depths)
		}
		if len(s.DecryptDepths) == 0 || !slices.IsSorted(s.DecryptDepths) {
			t.Errorf("%s: decrypt depths %v not ascending", s.Name, s.DecryptDepths)
		}
		for _, hw := range s.DecryptDepths {
			if !slices.Contains(s.Depths, hw) {
				t.Errorf("%s: decrypt depth %d is not a legal depth", s.Name, hw)
			}
		}
		for _, hw := range s.Depths {
			if s.Rounds%hw != 0 {
				t.Errorf("%s: depth %d does not divide %d rounds", s.Name, hw, s.Rounds)
			}
		}
		for _, n := range s.KeySizes {
			key := bytes.Repeat([]byte{0x5c}, n)
			for _, d := range directions(s) {
				for _, hw := range d.depths {
					p, err := d.build(key, hw)
					if err != nil {
						t.Errorf("%s-%d %s, %d-byte key: %v", s.Name, hw, d.name, n, err)
						continue
					}
					if p.Cipher != s.Name || p.TotalRounds != s.Rounds || p.HWRounds != hw {
						t.Errorf("%s-%d %s: program %s is %s-%d with %d rounds",
							s.Name, hw, d.name, p.Name, p.Cipher, p.HWRounds, p.TotalRounds)
					}
				}
			}
		}
	}
}

// TestRegistryRefusesUnlistedDepths walks every entry in both directions:
// a depth that Depths (or DecryptDepths) does not list is refused, never
// built at some other depth.
func TestRegistryRefusesUnlistedDepths(t *testing.T) {
	for _, s := range Specs() {
		key := bytes.Repeat([]byte{0x5c}, s.KeySizes[0])
		for _, d := range directions(s) {
			for hw := -1; hw <= 2*s.Rounds; hw++ {
				if slices.Contains(d.depths, hw) {
					continue
				}
				if p, err := d.build(key, hw); err == nil {
					t.Errorf("%s %s: depth %d is not listed (%v) but built %s", s.Name, d.name, hw, d.depths, p.Name)
				}
			}
		}
	}
}

func TestRegistryReferenceBlockSize(t *testing.T) {
	for _, s := range Specs() {
		for _, n := range s.KeySizes {
			ref, err := s.Reference(bytes.Repeat([]byte{0xa3}, n))
			if err != nil {
				t.Errorf("%s, %d-byte key: %v", s.Name, n, err)
				continue
			}
			if ref.BlockSize() != s.BlockSize {
				t.Errorf("%s: reference block size %d, spec says %d", s.Name, ref.BlockSize(), s.BlockSize)
			}
		}
	}
}

func TestRegistryPackRoundTrip(t *testing.T) {
	for _, s := range Specs() {
		blocks := make([]byte, 3*s.BlocksPerSuperblock*s.BlockSize)
		for i := range blocks {
			blocks[i] = byte(7*i + 1)
		}
		sbs, err := s.Pack(blocks)
		if err != nil {
			t.Fatalf("%s: pack: %v", s.Name, err)
		}
		if len(sbs) != 3*16 {
			t.Errorf("%s: 3 superblocks of payload packed into %d bytes", s.Name, len(sbs))
		}
		// DES's Unpack also undoes the half swap its datapath leaves.
		back, err := s.Unpack(desSwap(s.Name, sbs))
		if err != nil {
			t.Fatalf("%s: unpack: %v", s.Name, err)
		}
		if !bytes.Equal(back, blocks) {
			t.Errorf("%s: Unpack(Pack(x)) = %x, want %x", s.Name, back, blocks)
		}
		if _, err := s.Pack(blocks[:len(blocks)-1]); err == nil {
			t.Errorf("%s: packed a partial block", s.Name)
		}
	}
}
