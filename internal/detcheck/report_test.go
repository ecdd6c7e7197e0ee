package detcheck

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteSARIFPinned pins the SARIF rendering byte for byte against
// testdata/report.sarif: the rule table (DET000 first), an active
// finding as an error with its line and column, and a suppressed one
// as a note whose region omits the unknown column.
func TestWriteSARIFPinned(t *testing.T) {
	rep := &Report{
		Findings: []Finding{
			{ID: "DET001", Analyzer: "floatmaprange", File: "internal/engine/sum.go", Line: 12, Col: 3,
				Message: "float accumulation over a map range"},
			{ID: "DET004", Analyzer: "tolliteral", File: "internal/engine/guard.go", Line: 40,
				Message: "tolerance literal 1e-12", Suppressed: true, Justification: "dimensionless guard"},
		},
		Packages: 2, Active: 1, Suppressed: 1,
	}
	var got bytes.Buffer
	if err := rep.WriteSARIF(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report.sarif"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("SARIF drifted from the pinned file\ngot:\n%s", got.String())
	}
}
