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
// call) in a pass of call1Reps of them. Each time is the median of
// fastpathReps warm repetitions. Verified asserts the executors agreed on
// every call — identical ciphertext and identical simulated counters — so
// a reported speedup can never come from a divergent (wrong) fast engine.
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

// call1Reps is the number of 1-block calls in one timed pass; the 1-block
// column is a pass's mean.
const call1Reps = 16

// fastpathReps is the number of timed repetitions of the batch call and
// of the 1-block pass, per engine; each column is their median.
const fastpathReps = 7

// MeasureFastpath times one configuration's bulk ECB encryption on both
// engines, then passes of call1Reps 1-block calls. Each engine first runs
// one untimed call of the batch, so that neither column pays a cold
// first call, then fastpathReps timed batch calls and fastpathReps timed
// passes, alternating with the other engine call by call. Each engine has
// its own machine/executor so neither run perturbs the other's pipeline
// state, and both consume the identical deterministic blocks. Before each
// interpreter call a used streaming machine is restored from the
// program's recording, outside the timer, so that the interpreter column
// times the call and not program.Run's reload, which simulates the
// configuration phase again.
func MeasureFastpath(c Config, key []byte, blocks int) (FastpathMeasurement, error) {
	if blocks < 1 {
		return FastpathMeasurement{}, fmt.Errorf("bench: fastpath batch of %d blocks", blocks)
	}
	p, err := Build(c, key)
	if err != nil {
		return FastpathMeasurement{}, err
	}
	rec, err := p.Record()
	if err != nil {
		return FastpathMeasurement{}, err
	}
	m, err := program.NewMachine(p)
	if err != nil {
		return FastpathMeasurement{}, err
	}
	observe(m)
	if err := m.Restore(rec); err != nil {
		return FastpathMeasurement{}, err
	}
	ex, err := p.CompileFrom(rec)
	if err != nil {
		return FastpathMeasurement{}, fmt.Errorf("%s-%d: trace compilation: %w", c.Alg, c.Rounds, err)
	}

	in := testBatch(blocks)
	want := make([]bits.Block128, blocks)
	got := make([]bits.Block128, blocks)
	verified := true
	// call runs one call of src on both engines, timing each into its
	// accumulator, and checks that they agree.
	call := func(src []bits.Block128, interpNs, fastNs *time.Duration) error {
		if p.Streaming && m.Dirty() {
			if err := m.Restore(rec); err != nil {
				return err
			}
		}
		t0 := time.Now()
		wantStats, err := program.Run(m, p, want, src, program.Opts{})
		*interpNs += time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		gotStats, err := ex.EncryptInto(got, src)
		*fastNs += time.Since(t0)
		if err != nil {
			return err
		}
		verified = verified && gotStats == wantStats && slices.Equal(got[:len(src)], want[:len(src)])
		return nil
	}

	var warm time.Duration
	if err := call(in, &warm, &warm); err != nil {
		return FastpathMeasurement{}, err
	}
	var interpBatch, fastBatch, interpCall1, fastCall1 []float64
	for r := 0; r < fastpathReps; r++ {
		var interpNs, fastNs time.Duration
		if err := call(in, &interpNs, &fastNs); err != nil {
			return FastpathMeasurement{}, err
		}
		interpBatch = append(interpBatch, float64(interpNs.Nanoseconds())/float64(blocks))
		fastBatch = append(fastBatch, float64(fastNs.Nanoseconds())/float64(blocks))
	}
	for r := 0; r < fastpathReps; r++ {
		var interpNs, fastNs time.Duration
		for i := 0; i < call1Reps; i++ {
			if err := call(in[i%len(in):i%len(in)+1], &interpNs, &fastNs); err != nil {
				return FastpathMeasurement{}, err
			}
		}
		interpCall1 = append(interpCall1, float64(interpNs.Nanoseconds())/call1Reps)
		fastCall1 = append(fastCall1, float64(fastNs.Nanoseconds())/call1Reps)
	}

	fm := FastpathMeasurement{
		Config:         c,
		Blocks:         blocks,
		InterpNsPerBlk: median(interpBatch),
		FastNsPerBlk:   median(fastBatch),
		InterpCall1Ns:  median(interpCall1),
		FastCall1Ns:    median(fastCall1),
		Verified:       verified,
	}
	if fm.FastNsPerBlk > 0 {
		fm.Speedup = fm.InterpNsPerBlk / fm.FastNsPerBlk
	}
	return fm, nil
}

// median returns the median of xs (the mean of the middle two when len(xs)
// is even), leaving xs in sorted order.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
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
	fmt.Fprintf(w, "Fastpath: trace-compiled executor vs cycle-accurate interpreter (wall clock, median of %d warm repetitions)\n", fastpathReps)
	fmt.Fprintln(w, "Alg\tRnds\tBlocks\tInterp ns/blk\tFastpath ns/blk\tSpeedup\tInterp ns/1-blk call\tFastpath ns/1-blk call\tVerified")
	for _, m := range fms {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%.0f\t%.1fx\t%.0f\t%.0f\t%v\n",
			m.Alg, m.Rounds, m.Blocks, m.InterpNsPerBlk, m.FastNsPerBlk, m.Speedup,
			m.InterpCall1Ns, m.FastCall1Ns, m.Verified)
	}
	w.Flush()
	return b.String()
}
