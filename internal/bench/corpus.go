package bench

import (
	"errors"
	"slices"

	"cobra/internal/program"
)

// ExtendedConfigurations returns the sweep of the extended corpus, the
// 64-bit-block mappings beyond the paper's three evaluated ciphers: every
// legal unroll depth of every 8-byte-block cipher in the registry. Their
// Table 3-style rows land in EXPERIMENTS.md next to the pinned sweep;
// Configurations itself stays frozen to the paper's set.
func ExtendedConfigurations() []Config {
	var out []Config
	for _, s := range program.Specs() {
		if s.BlockSize != 8 {
			continue
		}
		for _, hw := range s.Depths {
			out = append(out, Config{s.Name, hw})
		}
	}
	return out
}

// Builtins compiles every built-in program the repository ships — the
// Table 3 sweep with its decryptors, windowed Serpent, GOST, keyed
// Rijndael, and the extended corpus with its decryptors — in the order
// cobra-vet -builtin reports them. Builders that fail are collected, not
// fatal: the rest of the corpus still builds.
func Builtins(key []byte) ([]*program.Program, []error) {
	if len(key) == 0 {
		return nil, []error{errors.New("bench: empty key")}
	}
	var progs []*program.Program
	var errs []error
	add := func(p *program.Program, err error) {
		if err != nil {
			errs = append(errs, err)
			return
		}
		progs = append(progs, p)
	}
	withDecryptors := func(cs []Config) {
		for _, c := range cs {
			add(Build(c, key))
			if s, err := program.Lookup(c.Alg); err == nil && slices.Contains(s.DecryptDepths, c.Rounds) {
				add(BuildDecrypt(c, key))
			}
		}
	}
	withDecryptors(Configurations())
	for w := 2; w <= 16; w++ {
		add(program.BuildSerpentWindowed(key, w))
	}
	gostKey := make([]byte, 32) // GOST wants 256 bits; cycle the key bytes
	for i := range gostKey {
		gostKey[i] = key[i%len(key)]
	}
	add(program.BuildGOST(gostKey))
	add(program.BuildRijndaelKeyed())
	withDecryptors(ExtendedConfigurations())
	return progs, errs
}
