package trajectory

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/netcalc"
	"afdx/internal/obs"
)

// TestAnalyzeWithNCMatchesAnalyze pins AnalyzeWithNCCtx to AnalyzeCtx
// bit for bit (PathDelays and Details) for every NC result a caller may
// hand it: nil, default-option runs at Parallel 1 and 4 (shared as the
// prefix bounds), and non-default runs (grouping off, staircase
// envelopes), which must fall back to a private prefix run. The NC
// port counter of the trajectory call alone tells which source was
// used: zero ports when the prefix is shared, every port when the
// engine ran its own.
func TestAnalyzeWithNCMatchesAnalyze(t *testing.T) {
	type variant = struct {
		name string
		opts Options
	}
	defaults := []variant{{"default", DefaultOptions()}}

	type config struct {
		label    string
		net      *afdx.Network
		variants []variant
	}
	cases := []config{
		{"fig1", afdx.Figure1Config(), defaults},
		{"fig2", afdx.Figure2Config(), engineVariants},
	}
	files, err := filepath.Glob("../lint/testdata/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("golden corpus missing: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		net, err := afdx.LoadJSON(file, afdx.Strict)
		if err != nil {
			continue // invalid-on-purpose corpus entries
		}
		cases = append(cases, config{filepath.Base(file), net, engineVariants})
	}
	gen := func(seed int64, small bool, vls int) *afdx.Network {
		spec := configgen.DefaultSpec(seed)
		if small {
			spec.NumSwitches = 3
			spec.ESPerSwitch = 3
		}
		spec.NumVLs = vls
		net, err := configgen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	for seed := int64(1); seed <= 20; seed++ {
		cases = append(cases, config{fmt.Sprintf("configgen-%d", seed), gen(seed, true, 15), defaults})
	}
	cases = append(cases, config{"configgen-1-60vl", gen(1, false, 60), defaults})

	ncVariants := []struct {
		name   string
		opts   netcalc.Options
		shared bool
	}{
		{"default/p1", netcalc.Options{Grouping: true, Parallel: 1}, true},
		{"default/p4", netcalc.Options{Grouping: true, Parallel: 4}, true},
		{"nogrouping", netcalc.Options{Parallel: 1}, false},
		{"stairsteps4", netcalc.Options{Grouping: true, StairSteps: 4, Parallel: 1}, false},
	}

	ctx := context.Background()
	for _, c := range cases {
		pg, err := afdx.BuildPortGraph(c.net, afdx.Strict)
		if err != nil {
			continue
		}
		type source struct {
			name   string
			nc     *netcalc.Result
			shared bool
		}
		sources := []source{{"nil", nil, false}}
		for _, nv := range ncVariants {
			if nc, err := netcalc.AnalyzeCtx(ctx, pg, nv.opts); err == nil {
				sources = append(sources, source{nv.name, nc, nv.shared})
			}
		}
		for _, v := range c.variants {
			for _, par := range []int{1, 4} {
				opts := v.opts
				opts.Parallel = par
				want, wantErr := AnalyzeCtx(ctx, pg, opts)
				for _, src := range sources {
					label := fmt.Sprintf("%s/%s/p%d/nc=%s", c.label, v.name, par, src.name)
					reg := obs.NewRegistry()
					got, err := AnalyzeWithNCCtx(obs.WithRegistry(ctx, reg), pg, opts, src.nc)
					if wantErr != nil || err != nil {
						if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
							t.Errorf("%s: error %v, AnalyzeCtx error %v", label, err, wantErr)
						}
						continue
					}
					if !reflect.DeepEqual(got.PathDelays, want.PathDelays) || !reflect.DeepEqual(got.Details, want.Details) {
						t.Errorf("%s: result differs from AnalyzeCtx", label)
					}
					wantPorts := int64(len(pg.Ports))
					if src.shared {
						wantPorts = 0
					}
					if n := reg.Snapshot().Counter("netcalc.ports_analyzed"); n != wantPorts {
						t.Errorf("%s: prefix run analysed %d NC ports, want %d", label, n, wantPorts)
					}
				}
			}
		}
	}
}

// TestNCResultOfAnotherGraphRejected hands the engine a default-option
// NC result of another graph: Figure 2 without its last VL, v5, which
// alone crosses e5->S3 and S3->e7. Analysis and explanation must fail
// on the first port, in PortID order, whose flows the result does not
// cover, instead of indexing past its flow bounds.
func TestNCResultOfAnotherGraphRejected(t *testing.T) {
	pg := figure2Graph(t)
	net := afdx.Figure2Config()
	net.VLs = net.VLs[:len(net.VLs)-1]
	other, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := netcalc.Analyze(other, netcalc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const want = "trajectory: the NC result holds 0 flow bounds at port S3->e7, the port graph 1 flows (a result of another graph?)"
	ctx := context.Background()
	if _, err := AnalyzeWithNCCtx(ctx, pg, DefaultOptions(), nc); err == nil || err.Error() != want {
		t.Errorf("AnalyzeWithNCCtx: got %v, want %q", err, want)
	}
	if _, err := ExplainCtx(ctx, pg, afdx.PathID{VL: "v1"}, DefaultOptions(), nc); err == nil || err.Error() != want {
		t.Errorf("ExplainCtx: got %v, want %q", err, want)
	}
}
