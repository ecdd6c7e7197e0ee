package afdx_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	afdx "afdx/internal/afdx"
	"afdx/internal/configgen"
)

// portGraphDigest is an FNV-64a digest of everything BuildPortGraph
// derives: the topological order, the dependency ranks, each port's
// rate, latency and flow list (with each flow's upstream node), and the
// port sequence of every path. Floats are rendered in exact
// hexadecimal (%x) form.
func portGraphDigest(pg *afdx.PortGraph) uint64 {
	h := fnv.New64a()
	line := func(format string, args ...any) { fmt.Fprintf(h, format+"\n", args...) }
	for _, id := range pg.Order {
		line("order %s", id)
	}
	for r, rank := range pg.Ranks() {
		ids := make([]string, len(rank))
		for i, id := range rank {
			ids[i] = id.String()
		}
		line("rank %d %s", r, strings.Join(ids, " "))
	}
	for _, id := range pg.Order {
		p := pg.Ports[id]
		line("port %s rate %x latency %x", id, p.RateBitsPerUs, p.LatencyUs)
		for _, f := range p.Flows {
			line("  flow %s prev %q", f.VL.ID, p.Groups[f.Group].Prev)
		}
	}
	for _, pid := range pg.Net.AllPaths() {
		ids := []string{}
		for _, id := range pg.PathPorts(pid) {
			ids = append(ids, id.String())
		}
		line("path %s %s", pid, strings.Join(ids, " "))
	}
	return h.Sum64()
}

// portGroupDigest is an FNV-64a digest of how every flow enters its
// port: each port's input groups (input node and link rate, in exact
// hexadecimal form) and each flow's group, VL ordinal and index at the
// port it crossed just before (-1 at its source port).
func portGroupDigest(pg *afdx.PortGraph) uint64 {
	h := fnv.New64a()
	line := func(format string, args ...any) { fmt.Fprintf(h, format+"\n", args...) }
	for _, id := range pg.Order {
		p := pg.Ports[id]
		line("port %s", id)
		for g, in := range p.Groups {
			line("  group %d prev %q rate %x", g, in.Prev, in.RateBitsPerUs)
		}
		for _, f := range p.Flows {
			line("  flow %s group %d ord %d up %d", f.VL.ID, f.Group, f.Ord, f.Up)
		}
	}
	return h.Sum64()
}

// TestPortGraphGoldenDigests pins BuildPortGraph's output on the
// paper's samples, a two-level priority variant, Figure 2 with a slow
// last hop, two configgen draws, and every lint corpus file (Relaxed
// mode, as the linter builds it), twice: the graph digest and the
// input-group digest. A file whose graph does not build pins its error
// text instead.
func TestPortGraphGoldenDigests(t *testing.T) {
	type input struct {
		name string
		net  *afdx.Network
	}
	priority := afdx.Figure2Config()
	priority.VLs[2].Priority = 1
	priority.VLs[3].Priority = 1
	// S3->e6 at 10 Mb/s: its groups still arrive at 100 Mb/s.
	slowLastHop := afdx.Figure2Config()
	slowLastHop.LinkRates = []afdx.LinkRate{{From: "S3", To: "e6", Mbps: 10}}
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
	inputs := []input{
		{"figure1", afdx.Figure1Config()},
		{"figure2", afdx.Figure2Config()},
		{"priority", priority},
		{"slowlasthop", slowLastHop},
		{"seed1-120", smallNet},
		{"seed1-industrial", industrial},
	}
	files, err := filepath.Glob(filepath.Join("..", "lint", "testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("lint corpus not found: %v", err)
	}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		net, err := afdx.DecodeJSON(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		inputs = append(inputs, input{"corpus/" + filepath.Base(file), net})
	}
	want := map[string]string{
		"figure1":                   "0x8b4ac33c0e5bb375",
		"figure2":                   "0x6a4c47f098ee026",
		"priority":                  "0x6a4c47f098ee026",
		"slowlasthop":               "0xaeb71f6739c048fe",
		"seed1-120":                 "0xd1b152eb445aad43",
		"seed1-industrial":          "0x259330ecc323d53b",
		"corpus/bad_attach.json":    "error: afdx: [AFDX012] end system \"e1\" attached to both \"S1\" and \"S2\"",
		"corpus/bad_bag.json":       "0x669c47c0737df031",
		"corpus/bad_frame.json":     "0x669c47c0737df031",
		"corpus/bad_network.json":   "error: afdx: [AFDX011] non-positive link rate -5",
		"corpus/bad_tree.json":      "error: afdx: [AFDX006] VL v1 path 1 reaches \"S2\" from \"S3\", but another path reaches it from \"S1\" (multicast routing must be a tree)",
		"corpus/clean.json":         "0x669c47c0737df031",
		"corpus/deadline.json":      "0x14d83fbdb57a684",
		"corpus/dup_vl.json":        "error: afdx: [AFDX003] duplicate virtual link ID \"v1\"",
		"corpus/jitter.json":        "0x6a1cad4d8a8d0d44",
		"corpus/multi.json":         "error: afdx: [AFDX003] duplicate virtual link ID \"v1\"",
		"corpus/no_grouping.json":   "0x9befb0f85021097c",
		"corpus/no_path.json":       "error: afdx: [AFDX002] VL v1 has no path",
		"corpus/nonfinite_bag.json": "error: afdx: [AFDX004] VL v1 has non-finite BAG 1e+306 ms (+Inf us)",
		"corpus/orphan.json":        "0x669c47c0737df031",
		"corpus/overbudget.json":    "0x63ec59451d9fca",
		"corpus/routing_loop.json":  "error: afdx: cyclic port dependencies (3 of 9 ports ordered); the holistic analyses require a feed-forward configuration",
		"corpus/unstable_port.json": "0x824a865760746c46",
	}
	// The input-group digests of the inputs whose graph builds.
	wantGroups := map[string]string{
		"figure1":                   "0x580f4719555d553a",
		"figure2":                   "0x79357ea0bc13d45",
		"priority":                  "0x79357ea0bc13d45",
		"slowlasthop":               "0x79357ea0bc13d45",
		"seed1-120":                 "0xddcc764460a71a21",
		"seed1-industrial":          "0xa4bbe3b3dad5d22e",
		"corpus/bad_bag.json":       "0x566a3a67fbda5f6d",
		"corpus/bad_frame.json":     "0x566a3a67fbda5f6d",
		"corpus/clean.json":         "0x566a3a67fbda5f6d",
		"corpus/deadline.json":      "0x696f271f1bcf9d08",
		"corpus/jitter.json":        "0xa0122658ef226ca",
		"corpus/no_grouping.json":   "0xd1d7d26ea0ae7b2a",
		"corpus/orphan.json":        "0x566a3a67fbda5f6d",
		"corpus/overbudget.json":    "0xc71d7d38d3c1a2f",
		"corpus/unstable_port.json": "0x55ca370e212e0ead",
	}
	if len(want) != len(inputs) {
		t.Errorf("%d pinned entries for %d inputs", len(want), len(inputs))
	}
	for _, in := range inputs {
		pg, err := afdx.BuildPortGraph(in.net, afdx.Relaxed)
		if err != nil {
			if got := "error: " + err.Error(); got != want[in.name] {
				t.Errorf("%s: got %q, want the pinned %q", in.name, got, want[in.name])
			}
			continue
		}
		if got := fmt.Sprintf("%#x", portGraphDigest(pg)); got != want[in.name] {
			t.Errorf("%s: got %q, want the pinned %q", in.name, got, want[in.name])
		}
		if got := fmt.Sprintf("%#x", portGroupDigest(pg)); got != wantGroups[in.name] {
			t.Errorf("%s groups: got %q, want the pinned %q", in.name, got, wantGroups[in.name])
		}
	}
}
