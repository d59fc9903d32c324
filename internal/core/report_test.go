package core

import (
	"encoding/json"
	"testing"

	"cobra/internal/sim"
)

// TestReportJSONGolden pins the report wire format: the Summary embed and
// the device-only fields marshal under stable snake_case keys, so
// cobra-bench JSON output, the Summary in cobrad's STATS reply and any
// downstream tooling never silently re-key. Changing this golden string
// is an API break — do it deliberately.
func TestReportJSONGolden(t *testing.T) {
	r := Report{
		Summary: Summary{
			Algorithm:      RC6,
			Backend:        "device",
			Workers:        1,
			Unroll:         2,
			Rows:           4,
			Stats:          sim.Stats{Cycles: 100, Advanced: 90, Stalled: 10, Instructions: 80, Nops: 5, BlocksIn: 8, BlocksOut: 8},
			CyclesPerBlock: 12.5,
			DatapathMHz:    33.3,
			ThroughputMbps: 341.2,
		},
		Streaming: true,
		IRAMMHz:   66.6,
		Gates:     51000,
	}
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"algorithm":"rc6","backend":"device","workers":1,"unroll":2,"rows":4,` +
		`"stats":{"cycles":100,"advanced":90,"stalled":10,"instructions":80,"nops":5,` +
		`"blocks_in":8,"blocks_out":8},"cycles_per_block":12.5,"datapath_mhz":33.3,` +
		`"throughput_mbps":341.2,"streaming":true,"iram_mhz":66.6,"gates":51000}`
	if string(got) != want {
		t.Errorf("report JSON drifted:\n got %s\nwant %s", got, want)
	}
}

// TestLiveReportMarshals checks a real device's report round-trips
// through JSON with the Stats visible (embedding pitfalls like a
// shadowed MarshalJSON would flatten or drop fields).
func TestLiveReportMarshals(t *testing.T) {
	d, err := Configure(Rijndael, key, Config{Unroll: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(d.Report())
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"algorithm", "backend", "stats", "gates", "datapath_mhz"} {
		if _, ok := back[k]; !ok {
			t.Errorf("live report JSON missing key %q", k)
		}
	}
}
