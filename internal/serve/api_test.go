package serve

import (
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/core"
)

// TestPathBoundsCanonicalOrder checks that the wire bound list, built by
// walking the VLs in ID order, comes out in afdx.SortPathIDs order on a
// configuration whose VL IDs sort differently as strings and as
// numbers (v10 before v2) and whose slice order is neither.
func TestPathBoundsCanonicalOrder(t *testing.T) {
	net := afdx.Figure1Config()
	for _, vl := range net.VLs {
		if vl.ID == "v6" {
			vl.ID = "v10" // the multicast VL: two paths
		}
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := core.Compare(pg)
	if err != nil {
		t.Fatal(err)
	}
	want := net.AllPaths()
	afdx.SortPathIDs(want)
	if want[1].VL != "v10" || want[len(want)-1].VL != "vx" {
		t.Fatalf("fixture does not mix string and numeric order: %v", want)
	}
	got := pathBounds(cmp)
	if len(got) != len(want) {
		t.Fatalf("%d bounds, want %d", len(got), len(want))
	}
	for i, pb := range got {
		if pb.Path != want[i].String() {
			t.Errorf("bound %d is %s, want %s", i, pb.Path, want[i])
		}
		if pc := cmp.PerPath[want[i]]; pb.NCUs != pc.NCUs || pb.BestUs != pc.BestUs {
			t.Errorf("bound %d (%s) carries another path's values", i, pb.Path)
		}
	}
}
