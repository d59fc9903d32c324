package program

import (
	"fmt"
	"slices"
	"strings"

	"cobra/internal/cipher"
)

// Spec describes one cipher mapped onto COBRA: everything the device, the
// measurement harness, the CLIs and the test corpora need to build, run
// and check it without naming the cipher in code. Adding a cipher is one
// registry entry plus its builders and a known-answer vector.
type Spec struct {
	// Name is the registry key and the Cipher field of every program the
	// spec builds.
	Name string
	// Rounds is the cipher's full round count.
	Rounds int
	// BlockSize is the cipher block in bytes: 16, or 8 for the 64-bit
	// corpus.
	BlockSize int
	// BlocksPerSuperblock is how many cipher blocks one 128-bit datapath
	// superblock carries: 2 for the paired little-endian 64-bit mappings,
	// 1 for the others.
	BlocksPerSuperblock int
	// KeySizes lists the key lengths, in bytes, the cipher is specified
	// and tested for.
	KeySizes []int
	// Depths lists the legal unroll depths (rounds mapped into hardware),
	// ascending.
	Depths []int
	// DecryptDepths lists the depths with a decryption mapping, ascending.
	// Serpent has a single decryptor, at the paper's base granularity.
	DecryptDepths []int
	// Build and BuildDecrypt compile the cipher at unroll depth hw and
	// refuse a depth that Depths or DecryptDepths does not list; Reference
	// returns the host implementation every output is checked against.
	// The des entry takes the first 8 bytes of a longer key, so one 16-byte
	// measurement key drives the whole corpus.
	Build, BuildDecrypt func(key []byte, hw int) (*Program, error)
	Reference           func(key []byte) (cipher.Block, error)
	// Pack marshals whole cipher blocks into datapath superblocks and
	// Unpack recovers the blocks from the datapath's output
	// (superblock.go). DES's Unpack also undoes the Feistel half swap its
	// datapath leaves.
	Pack, Unpack func([]byte) ([]byte, error)
}

// registry holds every mapped cipher: the paper's three evaluated ciphers
// first, in Table 3 order, then the 64-bit corpus.
var registry = []*Spec{
	{
		Name: "rc6", Rounds: cipher.RC6Rounds, BlockSize: 16, BlocksPerSuperblock: 1,
		KeySizes: []int{16, 24, 32}, Depths: []int{1, 2, 4, 5, 10, 20},
		DecryptDepths: []int{1, 2, 4, 5, 10, 20},
		Build: func(key []byte, hw int) (*Program, error) {
			return BuildRC6(key, hw, cipher.RC6Rounds)
		},
		BuildDecrypt: func(key []byte, hw int) (*Program, error) {
			return BuildRC6Decrypt(key, hw, cipher.RC6Rounds)
		},
		Reference: reference(cipher.NewRC6),
		Pack:      copySuperblocks, Unpack: copySuperblocks,
	},
	{
		Name: "rijndael", Rounds: cipher.AESRounds, BlockSize: 16, BlocksPerSuperblock: 1,
		KeySizes: []int{16}, Depths: []int{1, 2, 5, 10}, DecryptDepths: []int{1, 2, 5, 10},
		Build: BuildRijndael, BuildDecrypt: BuildRijndaelDecrypt,
		Reference: reference(cipher.NewRijndael),
		Pack:      copySuperblocks, Unpack: copySuperblocks,
	},
	{
		Name: "serpent", Rounds: cipher.SerpentRounds, BlockSize: 16, BlocksPerSuperblock: 1,
		KeySizes: []int{16, 24, 32}, Depths: []int{1, 2, 4, 8, 16, 32}, DecryptDepths: []int{1},
		Build:        BuildSerpent,
		BuildDecrypt: onlyDepth("serpent-dec", 1, BuildSerpentDecrypt),
		Reference:    reference(cipher.NewSerpentCOBRA),
		Pack:         copySuperblocks, Unpack: copySuperblocks,
	},
	{
		Name: "rc5", Rounds: cipher.RC5Rounds, BlockSize: 8, BlocksPerSuperblock: 2,
		KeySizes: []int{16}, Depths: []int{1, 2, 3, 4, 6, 12}, DecryptDepths: []int{1, 2, 3, 4, 6, 12},
		Build: func(key []byte, hw int) (*Program, error) {
			return BuildRC5(key, hw, cipher.RC5Rounds)
		},
		BuildDecrypt: func(key []byte, hw int) (*Program, error) {
			return BuildRC5Decrypt(key, hw, cipher.RC5Rounds)
		},
		Reference: reference(cipher.NewRC5),
		Pack:      copySuperblocks, Unpack: copySuperblocks,
	},
	{
		Name: "tea", Rounds: 32, BlockSize: 8, BlocksPerSuperblock: 1,
		KeySizes: []int{16}, Depths: []int{1, 2, 4, 8, 16, 32}, DecryptDepths: []int{1, 2, 4, 8, 16, 32},
		Build: BuildTEA, BuildDecrypt: BuildTEADecrypt,
		Reference: reference(cipher.NewTEA),
		Pack:      packBE64, Unpack: unpackBE64,
	},
	{
		Name: "simon64", Rounds: cipher.SIMON64Rounds, BlockSize: 8, BlocksPerSuperblock: 2,
		KeySizes: []int{16}, Depths: []int{1, 2, 4, 11, 22, 44}, DecryptDepths: []int{1, 2, 4, 11, 22, 44},
		Build: BuildSIMON, BuildDecrypt: BuildSIMONDecrypt,
		Reference: reference(cipher.NewSIMON64),
		Pack:      copySuperblocks, Unpack: copySuperblocks,
	},
	{
		// Deeper Blowfish unrolls exceed the iRAM (ErrIRAMBudget).
		Name: "blowfish", Rounds: 16, BlockSize: 8, BlocksPerSuperblock: 1,
		KeySizes: []int{4, 8, 16, 56}, Depths: []int{1, 2}, DecryptDepths: []int{1, 2},
		Build: BuildBlowfish, BuildDecrypt: BuildBlowfishDecrypt,
		Reference: reference(cipher.NewBlowfish),
		Pack:      packBE64, Unpack: unpackBE64,
	},
	{
		// One round stage, at depth 1.
		Name: "des", Rounds: 16, BlockSize: 8, BlocksPerSuperblock: 1,
		KeySizes: []int{8}, Depths: []int{1}, DecryptDepths: []int{1},
		Build: onlyDepth("des", 1, func(key []byte) (*Program, error) {
			return BuildDES(desKey(key))
		}),
		BuildDecrypt: onlyDepth("des-dec", 1, func(key []byte) (*Program, error) {
			return BuildDESDecrypt(desKey(key))
		}),
		Reference: func(key []byte) (cipher.Block, error) {
			return reference(cipher.NewDES)(desKey(key))
		},
		Pack: DESPack, Unpack: DESUnpack,
	},
}

// reference adapts a concrete cipher constructor to Spec.Reference.
func reference[B cipher.Block](newBlock func([]byte) (B, error)) func([]byte) (cipher.Block, error) {
	return func(key []byte) (cipher.Block, error) {
		b, err := newBlock(key)
		if err != nil {
			return nil, err
		}
		return b, nil
	}
}

// onlyDepth adapts a builder with a single mapped depth to the registry's
// signature: any other depth is refused, not silently built at that one.
func onlyDepth(name string, depth int, build func(key []byte) (*Program, error)) func([]byte, int) (*Program, error) {
	return func(key []byte, hw int) (*Program, error) {
		if hw != depth {
			return nil, fmt.Errorf("program/%s: unroll depth %d has no mapping (only %d)", name, hw, depth)
		}
		return build(key)
	}
}

// desKey is the first 8 bytes of a longer key.
func desKey(key []byte) []byte {
	if len(key) > 8 {
		return key[:8]
	}
	return key
}

// Specs returns every registered cipher in registry order.
func Specs() []*Spec { return slices.Clone(registry) }

// Names returns the registered cipher names in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	return names
}

// Lookup returns the registered cipher called name.
func Lookup(name string) (*Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("program: unknown cipher %q (known: %s)", name, strings.Join(Names(), ", "))
}
