package bench

import (
	"encoding/json"
	"testing"
)

// TestMeasureFastpath pins the comparison harness itself: every Table 3
// configuration must trace-compile, both engines must agree (Verified),
// and the JSON report must archive the rows.
func TestMeasureFastpath(t *testing.T) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
	}
	fms, err := MeasureFastpathAll(key, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(fms) != len(Configurations()) {
		t.Fatalf("got %d rows, want %d", len(fms), len(Configurations()))
	}
	for _, m := range fms {
		if !m.Verified {
			t.Errorf("%s-%d: engines diverged", m.Alg, m.Rounds)
		}
		if m.FastNsPerBlk <= 0 || m.InterpNsPerBlk <= 0 || m.FastCall1Ns <= 0 || m.InterpCall1Ns <= 0 {
			t.Errorf("%s-%d: non-positive timing", m.Alg, m.Rounds)
		}
	}
	ms, err := MeasureAll(key, 8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ReportJSON(ms, nil, fms, 8)
	if err != nil {
		t.Fatal(err)
	}
	var r JSONReport
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Fastpath) != len(fms) {
		t.Fatalf("JSON report archived %d fastpath rows, want %d", len(r.Fastpath), len(fms))
	}
	if txt := FastpathTableText(fms); len(txt) == 0 {
		t.Fatal("empty table text")
	}
	if _, err := MeasureFastpath(Configurations()[0], key, 0); err == nil {
		t.Error("an empty batch was measured")
	}
}
