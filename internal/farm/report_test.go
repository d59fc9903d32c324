package farm

import (
	"encoding/json"
	"testing"

	"cobra/internal/core"
	"cobra/internal/sim"
)

// TestFarmReportJSONGolden pins the farm report wire format (the shared
// core.Summary embed plus the farm-only breakdown). Changing this golden
// string is an API break — do it deliberately.
func TestFarmReportJSONGolden(t *testing.T) {
	r := Report{
		Summary: core.Summary{
			Algorithm:      core.Rijndael,
			Backend:        "farm",
			Workers:        2,
			Unroll:         10,
			Rows:           8,
			Stats:          sim.Stats{Cycles: 40, Advanced: 40, Instructions: 30, BlocksIn: 6, BlocksOut: 6},
			CyclesPerBlock: 6.5,
			DatapathMHz:    25,
			ThroughputMbps: 960,
		},
		PerWorker: []WorkerReport{
			{Jobs: 2, BusyNs: 1500, Stats: sim.Stats{Cycles: 20, Advanced: 20, Instructions: 15, BlocksIn: 3, BlocksOut: 3}},
			{Jobs: 1, BusyNs: 900, Stats: sim.Stats{Cycles: 20, Advanced: 20, Instructions: 15, BlocksIn: 3, BlocksOut: 3}},
		},
		WallCycles: 20,
	}
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"algorithm":"rijndael","backend":"farm","workers":2,"unroll":10,"rows":8,` +
		`"stats":{"cycles":40,"advanced":40,"stalled":0,"instructions":30,"nops":0,` +
		`"blocks_in":6,"blocks_out":6},"cycles_per_block":6.5,"datapath_mhz":25,` +
		`"throughput_mbps":960,"per_worker":[` +
		`{"jobs":2,"busy_ns":1500,"stats":{"cycles":20,"advanced":20,"stalled":0,` +
		`"instructions":15,"nops":0,"blocks_in":3,"blocks_out":3}},` +
		`{"jobs":1,"busy_ns":900,"stats":{"cycles":20,"advanced":20,"stalled":0,` +
		`"instructions":15,"nops":0,"blocks_in":3,"blocks_out":3}}],` +
		`"wall_cycles":20}`
	if string(got) != want {
		t.Errorf("farm report JSON drifted:\n got %s\nwant %s", got, want)
	}
}
