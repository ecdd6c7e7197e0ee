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
			line("  flow %s prev %q", f.VL.ID, f.Prev)
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

// TestPortGraphGoldenDigests pins BuildPortGraph's output on the
// paper's samples, a two-level priority variant, two configgen draws,
// and every lint corpus file (Relaxed mode, as the linter builds it).
// A file whose graph does not build pins its error text instead.
func TestPortGraphGoldenDigests(t *testing.T) {
	type input struct {
		name string
		net  *afdx.Network
	}
	priority := afdx.Figure2Config()
	priority.VLs[2].Priority = 1
	priority.VLs[3].Priority = 1
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
	if len(want) != len(inputs) {
		t.Errorf("%d pinned entries for %d inputs", len(want), len(inputs))
	}
	for _, in := range inputs {
		var got string
		if pg, err := afdx.BuildPortGraph(in.net, afdx.Relaxed); err != nil {
			got = "error: " + err.Error()
		} else {
			got = fmt.Sprintf("%#x", portGraphDigest(pg))
		}
		if got != want[in.name] {
			t.Errorf("%s: got %q, want the pinned %q", in.name, got, want[in.name])
		}
	}
}
