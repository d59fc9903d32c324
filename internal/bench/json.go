package bench

import (
	"encoding/json"

	"cobra/internal/datapath"
	"cobra/internal/model"
)

// JSONReport is the machine-readable form of the measured evaluation,
// emitted by cobra-bench -json so the benchmark trajectory (BENCH_*.json)
// and other tooling can consume the reproduction's metrics without
// scraping the tabwriter output.
type JSONReport struct {
	// ATMRequirementMbps is the §1 headline requirement.
	ATMRequirementMbps int `json:"atm_requirement_mbps"`
	// Batch is the blocks-per-measurement used for the sweep.
	Batch int `json:"batch"`
	// Table3 is the per-configuration performance sweep.
	Table3 []Measurement `json:"table3"`
	// Table6 is the cycle-gates product sweep derived from Table3.
	Table6 []model.CGRow `json:"table6"`
	// Extended is the 64-bit corpus sweep (ExtendedConfigurations),
	// measured at the same batch; its cycles and Mbps count 64-bit blocks.
	Extended []Measurement `json:"extended"`
	// GatesBase is the Table 5 total for the base 4x4 geometry.
	GatesBase int `json:"gates_base_4x4"`
	// Fastpath archives the interpreter-vs-trace-compiled executor
	// comparison (cobra-bench -fastpath); omitted when not measured.
	Fastpath []FastpathMeasurement `json:"fastpath,omitempty"`
}

// ReportJSON renders the measured tables as indented JSON: ms is the
// Table 3 sweep and ext the extended one. fms may be nil when the fastpath
// comparison was not requested.
func ReportJSON(ms, ext []Measurement, fms []FastpathMeasurement, batch int) ([]byte, error) {
	r := JSONReport{
		ATMRequirementMbps: ATMRequirementMbps,
		Batch:              batch,
		Table3:             ms,
		Table6:             Table6Rows(ms),
		Extended:           ext,
		GatesBase:          model.Table5(model.Table4(), datapath.BaseGeometry()).Total(),
		Fastpath:           fms,
	}
	return json.MarshalIndent(r, "", "  ")
}
