package lint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"afdx/internal/lint"
)

// TestWriteSARIFPinned pins the SARIF rendering byte for byte against
// testdata/sarif: the rule table, each result's level and message, the
// logical network locations, the physical location an artifact URI
// adds, and a clean report's empty results array.
func TestWriteSARIFPinned(t *testing.T) {
	for _, c := range []struct{ cfg, uri, golden string }{
		{"clean.json", "", "clean.sarif"},
		{"clean.json", "configs/clean.json", "clean_uri.sarif"},
		{"multi.json", "", "multi.sarif"},
		{"multi.json", "configs/multi.json", "multi_uri.sarif"},
		{"no_grouping.json", "", "no_grouping.sarif"},
	} {
		var got bytes.Buffer
		if err := lint.Run(loadCorpus(t, c.cfg), lint.DefaultOptions()).WriteSARIF(&got, c.uri); err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "sarif", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("%s: SARIF drifted from the pinned file\ngot:\n%s", c.golden, got.String())
		}
	}
}
