package bench

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"cobra/internal/bits"
	"cobra/internal/census"
	"cobra/internal/datapath"
	"cobra/internal/model"
	"cobra/internal/program"
)

// Config names one Table 3 / Table 6 configuration.
type Config struct {
	Alg    string
	Rounds int
}

// Configurations returns the paper's evaluation sweep in Table 3 order.
func Configurations() []Config {
	return []Config{
		{"rc6", 1}, {"rc6", 2}, {"rc6", 4}, {"rc6", 5}, {"rc6", 10}, {"rc6", 20},
		{"rijndael", 1}, {"rijndael", 2}, {"rijndael", 5}, {"rijndael", 10},
		{"serpent", 1}, {"serpent", 8}, {"serpent", 16}, {"serpent", 32},
	}
}

// Build compiles one configuration with the given key.
func Build(c Config, key []byte) (*program.Program, error) {
	s, err := program.Lookup(c.Alg)
	if err != nil {
		return nil, err
	}
	return s.Build(key, c.Rounds)
}

// BuildDecrypt compiles one decryption configuration.
func BuildDecrypt(c Config, key []byte) (*program.Program, error) {
	s, err := program.Lookup(c.Alg)
	if err != nil {
		return nil, err
	}
	return s.BuildDecrypt(key, c.Rounds)
}

// Measurement is one measured Table 3 row.
type Measurement struct {
	Config
	CyclesPerBlock float64
	FreqMHz        float64
	Mbps           float64
	FPGAMbps       float64
	Rows           int
	Instructions   int
	Stalled        int
	Nops           int
	Verified       bool
}

// testBatch produces a deterministic pseudo-random workload of n blocks.
func testBatch(n int) []bits.Block128 {
	out := make([]bits.Block128, n)
	state := uint32(0x12345678)
	next := func() uint32 {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state
	}
	for i := range out {
		for w := 0; w < 4; w++ {
			out[i][w] = next()
		}
	}
	return out
}

// Measure runs one configuration over a batch of cipher blocks, verifies
// every output against the reference cipher, and returns the Table 3
// metrics. The batch is rounded up to whole superblocks, and
// CyclesPerBlock and Mbps count cipher blocks (64-bit ones for the
// extended corpus), so rows are comparable across the corpus.
func Measure(c Config, key []byte, batch int) (Measurement, error) {
	s, err := program.Lookup(c.Alg)
	if err != nil {
		return Measurement{}, err
	}
	p, err := s.Build(key, c.Rounds)
	if err != nil {
		return Measurement{}, err
	}
	m, err := program.NewMachine(p)
	if err != nil {
		return Measurement{}, err
	}
	observe(m)
	if err := program.Load(m, p); err != nil {
		return Measurement{}, err
	}
	// Analyze timing on the steady (post-setup) configuration, before the
	// run leaves the machine frozen in a first/last-round special state.
	tm := model.Analyze(m.Array, model.DefaultDelays())

	if r := batch % s.BlocksPerSuperblock; r != 0 {
		batch += s.BlocksPerSuperblock - r
	}
	raw := testBatch((batch*s.BlockSize + 15) / 16)
	pt := make([]byte, batch*s.BlockSize)
	for i := range pt {
		pt[i] = byte(raw[i/16][i/4%4] >> (8 * (i % 4)))
	}
	sbs, err := s.Pack(pt)
	if err != nil {
		return Measurement{}, err
	}
	stats, err := program.RunBytes(m, p, sbs, sbs, program.Opts{})
	if err != nil {
		return Measurement{}, err
	}
	got, err := s.Unpack(sbs)
	if err != nil {
		return Measurement{}, err
	}
	ref, err := s.Reference(key)
	if err != nil {
		return Measurement{}, err
	}
	want := make([]byte, len(pt))
	for i := 0; i < len(pt); i += s.BlockSize {
		ref.Encrypt(want[i:], pt[i:])
	}
	cpb := float64(stats.Cycles) / float64(batch)
	return Measurement{
		Config:         c,
		CyclesPerBlock: cpb,
		FreqMHz:        tm.DatapathMHz,
		Mbps:           tm.DatapathMHz * float64(8*s.BlockSize) / cpb,
		FPGAMbps:       FPGAEquivalentMbps(c.Alg, c.Rounds),
		Rows:           p.Geometry.Rows,
		Instructions:   stats.Instructions,
		Stalled:        stats.Stalled,
		Nops:           stats.Nops,
		Verified:       bytes.Equal(got, want),
	}, nil
}

// MeasureAll runs the whole Table 3 sweep.
func MeasureAll(key []byte, batch int) ([]Measurement, error) {
	return measureEach(Configurations(), key, batch)
}

// MeasureExtended runs the extended 64-bit corpus sweep
// (ExtendedConfigurations) exactly like Table 3.
func MeasureExtended(key []byte, batch int) ([]Measurement, error) {
	return measureEach(ExtendedConfigurations(), key, batch)
}

func measureEach(cs []Config, key []byte, batch int) ([]Measurement, error) {
	var out []Measurement
	for _, c := range cs {
		m, err := Measure(c, key, batch)
		if err != nil {
			return nil, fmt.Errorf("%s-%d: %w", c.Alg, c.Rounds, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// dot renders a float or the paper's "•" placeholder for zero.
func dot(v float64, format string) string {
	if v == 0 {
		return "•"
	}
	return fmt.Sprintf(format, v)
}

// Table1Text renders the Table 1 literature comparison.
func Table1Text() string {
	var b bytes.Buffer
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Table 1: AES finalists FPGA implementation studies (Mbps)")
	fmt.Fprintln(w, "Alg\tNFB [14]\tNFB [11]\tFB [11]\tFB [8]\tFB [14]\tFB [13]")
	for _, r := range Table1() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", r.Alg,
			dot(r.NFB14, "%.0f"), dot(r.NFB11, "%.0f"), dot(r.FB11, "%.1f"),
			dot(r.FB8, "%.2f"), dot(r.FB14, "%.1f"), dot(r.FB13, "%.1f"))
	}
	w.Flush()
	return b.String()
}

// Table2Text renders the operation census.
func Table2Text() string {
	var b bytes.Buffer
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Table 2: Occurrence of block cipher atomic operations")
	fmt.Fprintln(w, "Operation\tOccurrences")
	for _, r := range census.Table2() {
		fmt.Fprintf(w, "%s\t%d of %d\n", r.Name, r.Occurrences, r.Total)
	}
	w.Flush()
	return b.String()
}

// Table3Text renders the measured performance sweep next to the paper's
// FPGA comparison column.
func Table3Text(ms []Measurement) string {
	var b bytes.Buffer
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Table 3: COBRA encryption performance comparison (measured)")
	fmt.Fprintln(w, "Alg\tRnds\tClock Cycles\tClock Freq (MHz)\tThroughput (Mbps)\tEquiv FPGA (Mbps) [11]\tVerified")
	for _, m := range ms {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.3f\t%.2f\t%s\t%v\n",
			m.Alg, m.Rounds, m.CyclesPerBlock, m.FreqMHz, m.Mbps,
			dot(m.FPGAMbps, "%.1f"), m.Verified)
	}
	w.Flush()
	return b.String()
}

// Table3CompareText renders measured values against the paper's.
func Table3CompareText(ms []Measurement) string {
	paper := map[Config]PaperTable3Row{}
	for _, r := range PaperTable3() {
		paper[Config{r.Alg, r.Rounds}] = r
	}
	var b bytes.Buffer
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Table 3 paper-vs-measured")
	fmt.Fprintln(w, "Alg\tRnds\tCycles paper\tCycles meas\tMHz paper\tMHz meas\tMbps paper\tMbps meas")
	for _, m := range ms {
		p := paper[m.Config]
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f\t%.3f\t%.3f\t%.2f\t%.2f\n",
			m.Alg, m.Rounds, p.Cycles, m.CyclesPerBlock, p.FreqMHz, m.FreqMHz, p.Mbps, m.Mbps)
	}
	w.Flush()
	return b.String()
}

// Table4Text renders the per-element gate counts.
func Table4Text() string {
	g := model.Table4()
	var b bytes.Buffer
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Table 4: Reconfigurable element gate counts")
	fmt.Fprintln(w, "Configurable Element\tGates")
	rows := []struct {
		name  string
		gates int
	}{
		{"A", g.A}, {"B", g.B}, {"C", g.C}, {"D", g.D}, {"E", g.E}, {"F", g.F},
		{"4-to-1 Multiplexor, Grouping of 32", g.Mux4x32},
		{"4-to-1 Multiplexor, Grouping of 5", g.Mux4x5},
		{"2-to-1 Multiplexor, Grouping of 32", g.Mux2x32},
		{"32-Bit Register", g.Reg32},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\n", r.name, comma(r.gates))
	}
	w.Flush()
	return b.String()
}

// Table5Text renders the architecture gate counts for a geometry.
func Table5Text(geo datapath.Geometry) string {
	a := model.Table5(model.Table4(), geo)
	var b bytes.Buffer
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "Table 5: COBRA architecture gate counts (%d rows)\n", geo.Rows)
	fmt.Fprintln(w, "Element\tGates")
	fmt.Fprintf(w, "RCE/RCE MUL Array\t%s\n", comma(a.RCEArray))
	fmt.Fprintf(w, "Byte Shufflers\t%s\n", comma(a.Shufflers))
	fmt.Fprintf(w, "Input Multiplexors\t%s\n", comma(a.InputMuxes))
	fmt.Fprintf(w, "Whitening Blocks\t%s\n", comma(a.Whitening))
	fmt.Fprintf(w, "Embedded RAMs\t%s\n", comma(a.ERAMs))
	fmt.Fprintf(w, "Instruction RAM\t%s\n", comma(a.IRAM))
	fmt.Fprintf(w, "Datapath Overhead\t%s\n", comma(a.DatapathOvh))
	fmt.Fprintf(w, "Chip Overhead\t%s\n", comma(a.ChipOvh))
	fmt.Fprintf(w, "Total\t%s\n", comma(a.Total()))
	fmt.Fprintf(w, "Total (SRAM estimate, §4.2)\t%s\n", comma(a.TotalWithSRAM()))
	w.Flush()
	return b.String()
}

// Table6Rows derives the cycle-gates product rows from measurements.
func Table6Rows(ms []Measurement) []model.CGRow {
	rows := make([]model.CGRow, 0, len(ms))
	for _, m := range ms {
		gates := model.Table5(model.Table4(), datapath.Geometry{Rows: m.Rows}).Total()
		rows = append(rows, model.CGRow{
			Cipher: m.Alg,
			Rounds: m.Rounds,
			Cycles: m.CyclesPerBlock,
			Gates:  gates,
		})
	}
	return model.CGProducts(rows)
}

// Table6Text renders the CG products with the paper's normalized column.
func Table6Text(ms []Measurement) string {
	rows := Table6Rows(ms)
	paper := map[Config]PaperTable6Row{}
	for _, r := range PaperTable6() {
		paper[Config{r.Alg, r.Rounds}] = r
	}
	var b bytes.Buffer
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Table 6: COBRA encryption CG product (measured)")
	fmt.Fprintln(w, "Alg\tRnds\tCycles\tGates\tCG Prod\tNorm CG\tNorm CG (paper)")
	for _, r := range rows {
		p := paper[Config{r.Cipher, r.Rounds}]
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%s\t%.3e\t%.3f\t%.3f\n",
			r.Cipher, r.Rounds, r.Cycles, comma(r.Gates), r.CGProduct, r.Normalized, p.NormCG)
	}
	w.Flush()
	return b.String()
}

// ATMText reports the §1/§4.2 headline claim: full-length pipeline
// implementations of all three algorithms meet the 622 Mbps ATM
// requirement.
func ATMText(ms []Measurement) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ATM requirement: %d Mbps (§1)\n", ATMRequirementMbps)
	for _, m := range ms {
		if s, err := program.Lookup(m.Alg); err != nil || m.Rounds != s.Rounds {
			continue
		}
		verdict := "MEETS"
		if m.Mbps < ATMRequirementMbps {
			verdict = "MISSES"
		}
		fmt.Fprintf(&b, "%s-%d: %.0f Mbps -> %s the requirement\n", m.Alg, m.Rounds, m.Mbps, verdict)
	}
	return b.String()
}

// Figure1Text renders the architecture/interconnect topology for a loaded
// configuration (the textual stand-in for the paper's figure 1).
func Figure1Text(c Config, key []byte) (string, error) {
	p, err := Build(c, key)
	if err != nil {
		return "", err
	}
	m, err := program.NewMachine(p)
	if err != nil {
		return "", err
	}
	if err := program.Load(m, p); err != nil {
		return "", err
	}
	return m.Array.Describe(), nil
}

// Figure23Text renders the configured RCE and RCE MUL chains of row 0/1
// (the textual stand-in for figures 2 and 3).
func Figure23Text(c Config, key []byte) (string, error) {
	p, err := Build(c, key)
	if err != nil {
		return "", err
	}
	m, err := program.NewMachine(p)
	if err != nil {
		return "", err
	}
	if err := program.Load(m, p); err != nil {
		return "", err
	}
	var b strings.Builder
	for row := 0; row < min(2, p.Geometry.Rows); row++ {
		for col := 0; col < datapath.Cols; col++ {
			fmt.Fprintf(&b, "r%d.c%d  %s\n", row, col, m.Array.RCE(row, col).Describe())
		}
	}
	return b.String(), nil
}

// comma formats an integer with thousands separators, as the paper prints
// gate counts.
func comma(v int) string {
	s := fmt.Sprintf("%d", v)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// SortMeasurements orders rows in Table 3 publication order (already built
// that way by MeasureAll; exported for callers that collect out of order).
func SortMeasurements(ms []Measurement) {
	order := map[string]int{}
	for i, name := range program.Names() {
		order[name] = i
	}
	sort.Slice(ms, func(i, j int) bool {
		if order[ms[i].Alg] != order[ms[j].Alg] {
			return order[ms[i].Alg] < order[ms[j].Alg]
		}
		return ms[i].Rounds < ms[j].Rounds
	})
}
