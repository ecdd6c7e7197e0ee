package netcalc

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
)

// wcncDigest is an FNV-64a digest of every field of a WCNC result on
// the graph pg it was computed on: per-port bounds (each priority level
// included), path bounds and the three per-flow bounds of every port,
// each kind listed by (VL, port) in sorted order, with floats in exact
// hexadecimal (%x) form, so any change to a float accumulation order
// changes the digest.
func wcncDigest(pg *afdx.PortGraph, r *Result) uint64 {
	h := fnv.New64a()
	line := func(format string, args ...any) { fmt.Fprintf(h, format+"\n", args...) }

	ports := make([]afdx.PortID, 0, len(r.Ports))
	for id := range r.Ports {
		ports = append(ports, id)
	}
	afdx.SortPortIDs(ports)
	for _, id := range ports {
		p := r.Ports[id]
		line("port %s delay %x backlog %x util %x", id, p.DelayUs, p.BacklogBits, p.Utilization)
		levels := make([]int, 0, len(p.DelayByPriority))
		for lvl := range p.DelayByPriority {
			levels = append(levels, lvl)
		}
		sort.Ints(levels)
		for _, lvl := range levels {
			line("  level %d %x", lvl, p.DelayByPriority[lvl])
		}
	}

	paths := make([]afdx.PathID, 0, len(r.PathDelays))
	for pid := range r.PathDelays {
		paths = append(paths, pid)
	}
	afdx.SortPathIDs(paths)
	for _, pid := range paths {
		line("path %s %x", pid, r.PathDelays[pid])
	}

	// Every (VL, port) incidence, VL-major; ports is already sorted.
	type incidence struct {
		vl   string
		port afdx.PortID
		fb   FlowBound
	}
	var flows []incidence
	for _, id := range ports {
		for k, f := range pg.Ports[id].Flows {
			flows = append(flows, incidence{f.VL.ID, id, r.Ports[id].Flows[k]})
		}
	}
	slices.SortStableFunc(flows, func(a, b incidence) int { return strings.Compare(a.vl, b.vl) })
	for _, m := range []struct {
		name string
		val  func(FlowBound) float64
	}{
		{"flow", func(fb FlowBound) float64 { return fb.DelayUs }},
		{"prefix", func(fb FlowBound) float64 { return fb.PrefixUs }},
		{"burst", func(fb FlowBound) float64 { return fb.BurstBits }},
	} {
		for _, f := range flows {
			line("%s %s %s %x", m.name, f.vl, f.port, m.val(f.fb))
		}
	}
	return h.Sum64()
}

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

// goldenNetworks are the configurations the WCNC goldens cover: the
// paper's two samples, a two-level priority variant of Figure 2,
// Figure 2 with a slow last hop, and three configgen draws (120 VLs,
// the same with a faster core, and the full seed-1 industrial config).
func goldenNetworks(t *testing.T) []struct {
	name string
	net  *afdx.Network
} {
	t.Helper()
	small := configgen.DefaultSpec(1)
	small.NumVLs = 120
	smallNet, err := configgen.Generate(small)
	if err != nil {
		t.Fatal(err)
	}
	industrial, err := configgen.Generate(configgen.DefaultSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	// S3->e6 at 10 Mb/s: its input groups arrive ten times faster than
	// it transmits.
	slowLastHop := afdx.Figure2Config()
	slowLastHop.LinkRates = []afdx.LinkRate{{From: "S3", To: "e6", Mbps: 10}}
	return []struct {
		name string
		net  *afdx.Network
	}{
		{"figure1", afdx.Figure1Config()},
		{"figure2", afdx.Figure2Config()},
		{"priority", priorityConfig()},
		{"slowlasthop", slowLastHop},
		{"seed1-120", smallNet},
		{"seed1-120-fastcore", fastCore(smallNet.Clone())},
		{"seed1-industrial", industrial},
	}
}

// TestWCNCGoldenDigests pins the WCNC engine's complete output bit for
// bit, per configuration and option variant, at 1 and 8 workers. A
// variant the engine rejects pins its error text instead.
func TestWCNCGoldenDigests(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"nogrouping", Options{}},
		{"stair4", Options{Grouping: true, StairSteps: 4}},
	}
	want := map[string]string{
		"figure1/default":             "0xa1236549c81eb7e4",
		"figure1/nogrouping":          "0xff5fa36385a48b39",
		"figure1/stair4":              "0x16b2185863f14742",
		"figure2/default":             "0x833471defd2fbf3c",
		"figure2/nogrouping":          "0x8cf9b7e58e615b40",
		"figure2/stair4":              "0xd1e7bcc331665168",
		"priority/default":            "0x72c59e6185c321d4",
		"priority/nogrouping":         "0x2b3af450d3d4b57d",
		"priority/stair4":             "error: netcalc: port S3->e6 level 1 residual service: minplus: SubPos requires a concave subtrahend",
		"seed1-120/default":           "0xeb32efec797282cd",
		"seed1-120/nogrouping":        "0xa8188e931eaacc5c",
		"seed1-120/stair4":            "0x773413300cfbd25a",
		"seed1-industrial/default":    "0x708e77b158d85559",
		"seed1-industrial/nogrouping": "0x6822465018e3e0a3",
		"seed1-industrial/stair4":     "0xfea324ac2300cc55",

		// Links of different rates: the group shaping runs at the
		// input link's rate, not the port's.
		"slowlasthop/default":           "0xc91e879c92160516",
		"slowlasthop/nogrouping":        "0xf0b81d502c644689",
		"slowlasthop/stair4":            "0x8083941c6b2172a3",
		"seed1-120-fastcore/default":    "0x2559c62c3d60ea15",
		"seed1-120-fastcore/nogrouping": "0xae0b25f29840a6c8",
		"seed1-120-fastcore/stair4":     "0xa344057cb25a7a92",
	}
	for _, cfg := range goldenNetworks(t) {
		pg, err := afdx.BuildPortGraph(cfg.net, afdx.Strict)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		for _, v := range variants {
			key := cfg.name + "/" + v.name
			for _, workers := range []int{1, 8} {
				opts := v.opts
				opts.Parallel = workers
				var got string
				if res, err := Analyze(pg, opts); err != nil {
					got = "error: " + err.Error()
				} else {
					got = fmt.Sprintf("%#x", wcncDigest(pg, res))
				}
				if got != want[key] {
					t.Errorf("%s (workers=%d): got %q, want the pinned %q", key, workers, got, want[key])
				}
			}
		}
	}
}
