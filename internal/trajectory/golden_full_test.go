//go:build !race

package trajectory

import (
	"fmt"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
)

// TestTrajectoryGoldenDigestsFull pins every path bound and detail of
// the full-size industrial configurations (configgen.DefaultSpec seeds
// 1 to 8, the certify-cold family) under the three option sets the
// sweeps use. The sweeps' evaluator (oracle_test.go) checks each bound
// only within tol.At, so a change of a few ulps, such as a reordered
// sum, passes it; only digests recorded before such a change can see
// it. Compiled out under the race detector and skipped in -short mode:
// it runs 24 full analyses.
func TestTrajectoryGoldenDigestsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size golden digests skipped in -short mode")
	}
	want := map[string]string{
		"seed1/grouped":   "0xe7e9847e461ce181",
		"seed1/ungrouped": "0x280236f891ebfaff",
		"seed1/shared":    "0x257c420036e1c6f1",
		"seed2/grouped":   "0xde74a73f86b95900",
		"seed2/ungrouped": "0x9ba97a56ba2742ba",
		"seed2/shared":    "0x81639c148404ed1d",
		"seed3/grouped":   "0x3dd9dd122b1c48b1",
		"seed3/ungrouped": "0xb76a865ab264a6bb",
		"seed3/shared":    "0x79e5c9edb098818",
		"seed4/grouped":   "0x706fb162dfa39c8",
		"seed4/ungrouped": "0xb4004acfaacb49d",
		"seed4/shared":    "0x1828721900768564",
		"seed5/grouped":   "0x423bb6006bb1d3bd",
		"seed5/ungrouped": "0x5f638de1b60f0dd0",
		"seed5/shared":    "0x2505b269b094b719",
		"seed6/grouped":   "0x2d1635d45446817f",
		"seed6/ungrouped": "0xb8679e8a189b5ffc",
		"seed6/shared":    "0x3eadc4878aa97577",
		"seed7/grouped":   "0x4e5e39a1395077e7",
		"seed7/ungrouped": "0x50a4071739592f5a",
		"seed7/shared":    "0x4aa54703f13eca5c",
		"seed8/grouped":   "0xcbc43170a04f8c57",
		"seed8/ungrouped": "0x52e30e37e23af523",
		"seed8/shared":    "0x60928af7ace60cbb",
	}
	for seed := int64(1); seed <= 8; seed++ {
		net, err := configgen.Generate(configgen.DefaultSpec(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pg, err := afdx.BuildPortGraph(net, afdx.Strict)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range engineVariants {
			key := fmt.Sprintf("seed%d/%s", seed, v.name)
			res, err := Analyze(pg, v.opts)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := fmt.Sprintf("%#x", pathDigest(res)); got != want[key] {
				t.Errorf("%s: got %q, want the pinned %q", key, got, want[key])
			}
		}
	}
}
