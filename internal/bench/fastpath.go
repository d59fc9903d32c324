package bench

import (
	"bytes"
	"fmt"
	"slices"
	"text/tabwriter"
	"time"

	"cobra/internal/bits"
	"cobra/internal/program"
)

// FastpathMeasurement compares the two execution engines on one
// configuration: wall-clock time per block for the cycle-accurate
// interpreter and for the trace-compiled executor over the same bulk
// batch, and the mean time of a 1-block call (a CBC-encrypt or small-CTR
// call) after it. Verified asserts the executors agreed on every call —
// identical ciphertext and identical simulated counters — so a reported
// speedup can never come from a divergent (wrong) fast engine.
type FastpathMeasurement struct {
	Config
	Blocks         int     `json:"blocks"`
	InterpNsPerBlk float64 `json:"interp_ns_per_block"`
	FastNsPerBlk   float64 `json:"fastpath_ns_per_block"`
	Speedup        float64 `json:"speedup"`
	InterpCall1Ns  float64 `json:"interp_call1_ns"`
	FastCall1Ns    float64 `json:"fastpath_call1_ns"`
	Verified       bool    `json:"verified"`
}

// call1Reps is the number of 1-block calls each engine runs after the bulk
// batch; the 1-block column is their mean.
const call1Reps = 16

// MeasureFastpath times one configuration's bulk ECB encryption on both
// engines, then call1Reps 1-block calls. Each engine gets its own
// machine/executor so neither run perturbs the other's pipeline state, and
// both consume the identical deterministic blocks.
func MeasureFastpath(c Config, key []byte, blocks int) (FastpathMeasurement, error) {
	if blocks < 1 {
		return FastpathMeasurement{}, fmt.Errorf("bench: fastpath batch of %d blocks", blocks)
	}
	p, err := Build(c, key)
	if err != nil {
		return FastpathMeasurement{}, err
	}
	m, err := program.NewMachine(p)
	if err != nil {
		return FastpathMeasurement{}, err
	}
	observe(m)
	if err := program.Load(m, p); err != nil {
		return FastpathMeasurement{}, err
	}
	ex, err := p.Compile()
	if err != nil {
		return FastpathMeasurement{}, fmt.Errorf("%s-%d: trace compilation: %w", c.Alg, c.Rounds, err)
	}

	in := testBatch(blocks)
	want := make([]bits.Block128, blocks)
	got := make([]bits.Block128, blocks)

	t0 := time.Now()
	wantStats, err := program.Run(m, p, want, in, program.Opts{})
	interpNs := float64(time.Since(t0).Nanoseconds())
	if err != nil {
		return FastpathMeasurement{}, err
	}
	t0 = time.Now()
	gotStats, err := ex.EncryptInto(got, in)
	fastNs := float64(time.Since(t0).Nanoseconds())
	if err != nil {
		return FastpathMeasurement{}, err
	}

	verified := gotStats == wantStats && slices.Equal(got, want)

	var interpCall1, fastCall1 time.Duration
	for i := 0; i < call1Reps; i++ {
		blk := in[i%len(in) : i%len(in)+1]
		t0 = time.Now()
		wantStats, err = program.Run(m, p, want[:1], blk, program.Opts{})
		interpCall1 += time.Since(t0)
		if err != nil {
			return FastpathMeasurement{}, err
		}
		t0 = time.Now()
		gotStats, err = ex.EncryptInto(got[:1], blk)
		fastCall1 += time.Since(t0)
		if err != nil {
			return FastpathMeasurement{}, err
		}
		verified = verified && gotStats == wantStats && got[0] == want[0]
	}

	fm := FastpathMeasurement{
		Config:         c,
		Blocks:         blocks,
		InterpNsPerBlk: interpNs / float64(blocks),
		FastNsPerBlk:   fastNs / float64(blocks),
		InterpCall1Ns:  float64(interpCall1.Nanoseconds()) / call1Reps,
		FastCall1Ns:    float64(fastCall1.Nanoseconds()) / call1Reps,
		Verified:       verified,
	}
	if fastNs > 0 {
		fm.Speedup = interpNs / fastNs
	}
	return fm, nil
}

// MeasureFastpathAll sweeps the Table 3 configurations through both
// engines.
func MeasureFastpathAll(key []byte, blocks int) ([]FastpathMeasurement, error) {
	var out []FastpathMeasurement
	for _, c := range Configurations() {
		fm, err := MeasureFastpath(c, key, blocks)
		if err != nil {
			return nil, fmt.Errorf("%s-%d: %w", c.Alg, c.Rounds, err)
		}
		out = append(out, fm)
	}
	return out, nil
}

// FastpathTableText renders the interpreter-vs-fastpath comparison.
func FastpathTableText(fms []FastpathMeasurement) string {
	var b bytes.Buffer
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Fastpath: trace-compiled executor vs cycle-accurate interpreter (wall clock)")
	fmt.Fprintln(w, "Alg\tRnds\tBlocks\tInterp ns/blk\tFastpath ns/blk\tSpeedup\tInterp ns/1-blk call\tFastpath ns/1-blk call\tVerified")
	for _, m := range fms {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%.0f\t%.1fx\t%.0f\t%.0f\t%v\n",
			m.Alg, m.Rounds, m.Blocks, m.InterpNsPerBlk, m.FastNsPerBlk, m.Speedup,
			m.InterpCall1Ns, m.FastCall1Ns, m.Verified)
	}
	w.Flush()
	return b.String()
}
