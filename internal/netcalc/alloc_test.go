package netcalc

import (
	"context"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
)

// wcncAllocCeiling bounds the heap allocations of one sequential WCNC
// run on configgen seed 1 (222 ports, 8,324 flow envelopes). Summing
// each group's leaky buckets in closed form made it 10,922; the curve
// additions it replaced made 35,894.
const wcncAllocCeiling = 12500

// TestWCNCAllocations guards the closed-form group sums: one flow more
// or less must not cost a curve. A change that allocates per flow again
// fails it.
func TestWCNCAllocations(t *testing.T) {
	net, err := configgen.Generate(configgen.DefaultSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Parallel = 1
	ctx := context.Background()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := AnalyzeCtx(ctx, pg, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > wcncAllocCeiling {
		t.Errorf("one WCNC run makes %.0f allocations, over the ceiling of %d", allocs, wcncAllocCeiling)
	}
}
