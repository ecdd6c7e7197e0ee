package netcalc

import (
	"fmt"
	"path/filepath"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
)

// TestExplainIdentity pins the NC explanation as a projection of the
// result: on every path, the port terms summed in path order equal the
// path bound with ==, and so does the last term's PrefixDelayUs +
// DelayUs. It sweeps Figure 2, every lint-corpus configuration that
// analyses, and the full-size configgen seeds 1 and 2.
func TestExplainIdentity(t *testing.T) {
	nets := map[string]*afdx.Network{"fig2": afdx.Figure2Config()}
	files, err := filepath.Glob("../lint/testdata/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("golden corpus missing: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		if net, err := afdx.LoadJSON(file, afdx.Strict); err == nil {
			nets[filepath.Base(file)] = net
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		net, err := configgen.Generate(configgen.DefaultSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("seed-%d", seed)] = net
	}
	explained := 0
	for name, net := range nets {
		pg, err := afdx.BuildPortGraph(net, afdx.Strict)
		if err != nil {
			continue
		}
		res, err := Analyze(pg, DefaultOptions())
		if err != nil {
			continue
		}
		for _, pid := range net.AllPaths() {
			ex, err := res.Explain(pg, pid)
			if err != nil {
				t.Fatalf("%s %v: %v", name, pid, err)
			}
			sum := 0.0
			for _, p := range ex.Ports {
				sum += p.DelayUs
			}
			last := ex.Ports[len(ex.Ports)-1]
			if sum != ex.DelayUs || last.PrefixDelayUs+last.DelayUs != ex.DelayUs || ex.DelayUs != res.PathDelays[pid] {
				t.Errorf("%s %v: port terms sum to %v, last prefix + delay %v, explained %v, bound %v",
					name, pid, sum, last.PrefixDelayUs+last.DelayUs, ex.DelayUs, res.PathDelays[pid])
			}
			explained++
		}
	}
	if explained < 10000 {
		t.Errorf("explained %d paths, want the >= 10000 of the sweep", explained)
	}
}
