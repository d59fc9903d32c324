package bench

import "testing"

// TestMeasureAllExtendedVerifies runs the 64-bit-cipher sweep: every
// configuration must build, run, and reproduce its host cipher exactly,
// and within a cipher deeper unrolls must not lose throughput.
func TestMeasureAllExtendedVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("extended sweep is not short")
	}
	perAlg := map[string][]Measurement{}
	for _, c := range ExtendedConfigurations() {
		m, err := Measure(c, benchKey, 8)
		if err != nil {
			t.Fatalf("%s-%d: %v", c.Alg, c.Rounds, err)
		}
		if !m.Verified {
			t.Errorf("%s-%d: outputs failed verification", m.Alg, m.Rounds)
		}
		if m.CyclesPerBlock <= 0 || m.Mbps <= 0 {
			t.Errorf("%s-%d: implausible measurement %+v", m.Alg, m.Rounds, m)
		}
		perAlg[m.Alg] = append(perAlg[m.Alg], m)
		t.Logf("%s-%d: %.1f cycles/64-bit block, %.3f MHz, %.2f Mbps (%d rows)",
			m.Alg, m.Rounds, m.CyclesPerBlock, m.FreqMHz, m.Mbps, m.Rows)
	}
	if len(perAlg) != 5 {
		t.Fatalf("extended sweep covers %d ciphers, want 5", len(perAlg))
	}
	for alg, rows := range perAlg {
		first, last := rows[0], rows[len(rows)-1]
		if len(rows) > 1 && last.Mbps <= first.Mbps {
			t.Errorf("%s: deepest unroll %.1f Mbps not above minimal %.1f",
				alg, last.Mbps, first.Mbps)
		}
	}
}

// TestExtendedDecryptConfigsBuild compiles every extended decryptor.
func TestExtendedDecryptConfigsBuild(t *testing.T) {
	for _, c := range ExtendedConfigurations() {
		if _, err := BuildDecrypt(c, benchKey); err != nil {
			t.Errorf("%s-dec-%d: %v", c.Alg, c.Rounds, err)
		}
	}
}

func TestBuiltinsRejectsEmptyKey(t *testing.T) {
	if progs, errs := Builtins(nil); len(progs) != 0 || len(errs) != 1 {
		t.Errorf("Builtins(nil) = %d programs, %v", len(progs), errs)
	}
}
