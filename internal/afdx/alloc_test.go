package afdx_test

import (
	"testing"

	afdx "afdx/internal/afdx"
	"afdx/internal/configgen"
)

// buildAllocCeiling bounds the heap allocations of one BuildPortGraph
// on configgen seed 1 (222 ports, 5,004 paths). Counting each port's
// flows first, to carve every flow list from one slab, and holding the
// path table as slices made it 1,507; growing each flow list and a
// PathID-keyed map made 3,043.
const buildAllocCeiling = 1700

// TestBuildPortGraphAllocations guards the count-first build: a flow
// list grown by append, or a per-path allocation, fails it.
func TestBuildPortGraphAllocations(t *testing.T) {
	net, err := configgen.Generate(configgen.DefaultSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := afdx.BuildPortGraph(net, afdx.Strict); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > buildAllocCeiling {
		t.Errorf("one BuildPortGraph makes %.0f allocations, over the ceiling of %d", allocs, buildAllocCeiling)
	}
}
