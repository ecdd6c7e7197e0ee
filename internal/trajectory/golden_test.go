package trajectory

import (
	"fmt"
	"hash/fnv"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
)

// fastCore returns n with every third switch-to-switch link, in PortID
// order, raised to 1000 Mb/s: the groups those links feed arrive faster
// than the ports they enter transmit.
func fastCore(n *afdx.Network) *afdx.Network {
	isSwitch := map[string]bool{}
	for _, s := range n.Switches {
		isSwitch[s] = true
	}
	seen := map[afdx.PortID]bool{}
	var core []afdx.PortID
	for _, vl := range n.VLs {
		for _, id := range vl.Links() {
			if isSwitch[id.From] && isSwitch[id.To] && !seen[id] {
				seen[id] = true
				core = append(core, id)
			}
		}
	}
	afdx.SortPortIDs(core)
	for i := 0; i < len(core); i += 3 {
		n.LinkRates = append(n.LinkRates, afdx.LinkRate{From: core[i].From, To: core[i].To, Mbps: 1000})
	}
	return n
}

// pathDigest is an FNV-64a digest of every path's bound and details,
// paths in sorted order and floats in exact hexadecimal (%x) form.
func pathDigest(r *Result) uint64 {
	h := fnv.New64a()
	paths := make([]afdx.PathID, 0, len(r.PathDelays))
	for pid := range r.PathDelays {
		paths = append(paths, pid)
	}
	afdx.SortPathIDs(paths)
	for _, pid := range paths {
		d := r.Details[pid]
		fmt.Fprintf(h, "path %s %x busy %x t %x cands %d inter %d\n",
			pid, r.PathDelays[pid], d.BusyPeriodUs, d.CriticalT, d.NumCandidates, d.NumInterferers)
	}
	return h.Sum64()
}

// fastCoreSeed returns configgen's draw of 120 VLs for seed, with a
// fast core (fastCore).
func fastCoreSeed(t *testing.T, seed int64) *afdx.Network {
	t.Helper()
	spec := configgen.DefaultSpec(seed)
	spec.NumVLs = 120
	n, err := configgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fastCore(n)
}

// TestTrajectoryGoldenDigests pins every path bound, grouped and
// ungrouped, on configurations whose links differ in rate: the grouping
// cap scales with each input link's rate relative to the port's. The
// cap's rate term counts only at a positive critical offset: seed 1
// has none at this size, seed 3 has eight.
func TestTrajectoryGoldenDigests(t *testing.T) {
	want := map[string]string{
		"slowlasthop/grouped":          "0xa95b0c37ccadb86b",
		"slowlasthop/ungrouped":        "0xdccee39ce29d17a3",
		"seed1-120-fastcore/grouped":   "0xc6a086dac06aca7b",
		"seed1-120-fastcore/ungrouped": "0xf0db6c5165f3e4e9",
		"seed3-120-fastcore/grouped":   "0x6cc1f0d1b4cfbc20",
		"seed3-120-fastcore/ungrouped": "0xc80eede3739b8b4f",
	}
	for _, cfg := range []struct {
		name string
		net  *afdx.Network
	}{
		{"slowlasthop", slowLastHop()},
		{"seed1-120-fastcore", fastCoreSeed(t, 1)},
		{"seed3-120-fastcore", fastCoreSeed(t, 3)},
	} {
		pg, err := afdx.BuildPortGraph(cfg.net, afdx.Strict)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		for _, v := range []struct {
			name string
			opts Options
		}{{"grouped", DefaultOptions()}, {"ungrouped", Options{}}} {
			key := cfg.name + "/" + v.name
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
