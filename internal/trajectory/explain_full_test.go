//go:build !race

package trajectory

import "testing"

// TestExplainIdentityConfiggenFull extends the explanation identity
// sweep to configgen seeds 11–100 (60 VLs, grouped and ungrouped).
// Like the full flat-vs-reference sweep it is compiled out under the
// race detector, whose tier keeps the 10-seed slice.
func TestExplainIdentityConfiggenFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full explanation sweep skipped in -short mode")
	}
	explainConfiggenSeeds(t, 11, 100)
}
