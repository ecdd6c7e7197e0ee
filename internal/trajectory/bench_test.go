package trajectory

import (
	"context"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/netcalc"
)

// BenchmarkAnalyzeIndustrial times the trajectory kernel alone on the
// synthetic industrial configuration (configgen.DefaultSpec(1)): the
// WCNC prefix bounds are computed once before the timer, and each
// iteration is one default-option analysis on one worker, so the
// figure is the per-path hot loop and not the prefix run or the pool.
func BenchmarkAnalyzeIndustrial(b *testing.B) {
	net, err := configgen.Generate(configgen.DefaultSpec(1))
	if err != nil {
		b.Fatal(err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	nc, err := netcalc.AnalyzeCtx(ctx, pg, netcalc.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Parallel = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := AnalyzeWithNCCtx(ctx, pg, opts, nc)
		if err != nil {
			b.Fatal(err)
		}
		if n := len(res.PathDelays); n != 5004 {
			b.Fatalf("analysed %d paths, want the 5004 of DefaultSpec(1)", n)
		}
	}
}
