package afdx

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func TestBuildPortGraphFigure2(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	// Ports: e1->S1, e2->S1, e3->S2, e4->S2, e5->S3, S1->S3, S2->S3,
	// S3->e6, S3->e7.
	if got := len(pg.Ports); got != 9 {
		t.Fatalf("got %d ports, want 9", got)
	}
	s3e6 := pg.Ports[PortID{"S3", "e6"}]
	if s3e6 == nil {
		t.Fatal("port S3->e6 missing")
	}
	if got := len(s3e6.Flows); got != 4 {
		t.Errorf("S3->e6 should carry 4 VLs, got %d", got)
	}
	if want := []InputGroup{{"S1", 100}, {"S2", 100}}; !slices.Equal(s3e6.Groups, want) {
		t.Errorf("S3->e6 groups = %v, want %v", s3e6.Groups, want)
	}
	for k, want := range []int32{0, 0, 1, 1} { // v1, v2 via S1; v3, v4 via S2
		if got := s3e6.Flows[k].Group; got != want {
			t.Errorf("S3->e6 flow %s in group %d, want %d", s3e6.Flows[k].VL.ID, got, want)
		}
	}
	src := pg.Ports[PortID{"e1", "S1"}]
	if len(src.Groups) != 1 || src.Groups[0] != (InputGroup{"", 100}) || src.Flows[0].Up != -1 {
		t.Errorf("source port e1->S1: groups %v, flow %+v; want one \"\" group at the port's rate, Up -1", src.Groups, src.Flows[0])
	}
}

// TestInputGroupsSorted checks every flow's input group, ordinal and
// upstream index against its paths, on Figure 2 with its VL IDs
// reversed so that S3->e6 meets its S2 group first, and with the S3->e6
// link slowed so that its groups arrive faster than it transmits.
func TestInputGroupsSorted(t *testing.T) {
	n := Figure2Config()
	n.LinkRates = []LinkRate{{From: "S3", To: "e6", Mbps: 10}}
	for i, j := 0, len(n.VLs)-1; i < j; i, j = i+1, j-1 {
		n.VLs[i].ID, n.VLs[j].ID = n.VLs[j].ID, n.VLs[i].ID
	}
	pg, err := BuildPortGraph(n, Strict)
	if err != nil {
		t.Fatal(err)
	}
	if got := pg.Ports[PortID{"S3", "e6"}].Groups; !slices.Equal(got, []InputGroup{{"S1", 100}, {"S2", 100}}) {
		t.Errorf("S3->e6 groups = %v, want S1 then S2 at 100 bits/us", got)
	}
	for id, p := range pg.Ports {
		if !slices.IsSortedFunc(p.Groups, func(a, b InputGroup) int { return strings.Compare(a.Prev, b.Prev) }) {
			t.Errorf("%s: groups not sorted by input node: %v", id, p.Groups)
		}
		members := make([]int, len(p.Groups))
		for _, f := range p.Flows {
			members[f.Group]++
			if pg.VLOrder()[f.Ord] != f.VL {
				t.Errorf("%s: %s has ordinal %d, which names %s", id, f.VL.ID, f.Ord, pg.VLOrder()[f.Ord].ID)
			}
			prev := ""
			for _, path := range f.VL.Paths {
				if k := slices.Index(path, id.From); k > 0 {
					prev = path[k-1]
				}
			}
			in := p.Groups[f.Group]
			if in.Prev != prev {
				t.Errorf("%s: %s arrives from %q but sits in group %q", id, f.VL.ID, prev, in.Prev)
				continue
			}
			if prev == "" {
				if f.Up != -1 || in.RateBitsPerUs != p.RateBitsPerUs {
					t.Errorf("%s: sourced %s has Up %d, group rate %g; want -1 and the port's %g", id, f.VL.ID, f.Up, in.RateBitsPerUs, p.RateBitsPerUs)
				}
				continue
			}
			up := pg.Ports[PortID{prev, id.From}]
			if up.Flows[f.Up].VL != f.VL || in.RateBitsPerUs != up.RateBitsPerUs {
				t.Errorf("%s: %s has Up %d, group rate %g; want its index at %s and that port's %g", id, f.VL.ID, f.Up, in.RateBitsPerUs, up.ID, up.RateBitsPerUs)
			}
		}
		if slices.Contains(members, 0) {
			t.Errorf("%s: a group without flows: %v", id, members)
		}
	}
}

// TestPortFlowSize keeps PortFlow, one per (VL, port) incidence, at
// three words.
func TestPortFlowSize(t *testing.T) {
	if got := unsafe.Sizeof(PortFlow{}); got > 24 {
		t.Errorf("PortFlow is %d bytes, want at most 24", got)
	}
}

func TestRanks(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	ranks := pg.Ranks()
	rankOf := map[PortID]int{}
	count := 0
	for r, ids := range ranks {
		for i, id := range ids {
			rankOf[id] = r
			count++
			if i > 0 {
				prev := ids[i-1]
				if prev.From > id.From || (prev.From == id.From && prev.To >= id.To) {
					t.Errorf("rank %d not canonically sorted: %v before %v", r, prev, id)
				}
			}
		}
	}
	if count != len(pg.Ports) {
		t.Fatalf("ranks cover %d ports, want %d", count, len(pg.Ports))
	}
	// Every feeder edge must climb at least one rank.
	for _, pid := range pg.Net.AllPaths() {
		seq := pg.PathPorts(pid)
		for k := 0; k+1 < len(seq); k++ {
			if rankOf[seq[k]] >= rankOf[seq[k+1]] {
				t.Errorf("path %v: feeder %v (rank %d) must be below %v (rank %d)",
					pid, seq[k], rankOf[seq[k]], seq[k+1], rankOf[seq[k+1]])
			}
		}
	}
	// Figure 2: source ports are rank 0, S1->S3 / S2->S3 rank 1, the two
	// S3 egress ports rank 2.
	if len(ranks) != 3 {
		t.Fatalf("figure 2 has 3 port ranks, got %d", len(ranks))
	}
	if rankOf[PortID{"S3", "e6"}] != 2 || rankOf[PortID{"S1", "S3"}] != 1 {
		t.Errorf("unexpected ranks: %v", rankOf)
	}
}

func TestPathPortsSequence(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	seq := pg.PathPorts(PathID{VL: "v1", PathIdx: 0})
	want := []PortID{{"e1", "S1"}, {"S1", "S3"}, {"S3", "e6"}}
	if len(seq) != len(want) {
		t.Fatalf("port sequence %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("port sequence %v, want %v", seq, want)
		}
	}
}

// TestPathTableEdges pins the path table's misses to what a map keyed
// by PathID gave: an unknown VL, a negative index and the index one past
// a VL's last path hold no port sequence and no floor. One past the last
// path of a multicast VL is the next VL's first slot in the table.
func TestPathTableEdges(t *testing.T) {
	for _, net := range []*Network{Figure1Config(), Figure2Config()} {
		pg, err := BuildPortGraph(net, Strict)
		if err != nil {
			t.Fatal(err)
		}
		misses := []PathID{{VL: "nosuch", PathIdx: 0}, {VL: "", PathIdx: 0}}
		for _, vl := range net.VLs {
			misses = append(misses, PathID{VL: vl.ID, PathIdx: -1}, PathID{VL: vl.ID, PathIdx: len(vl.Paths)})
		}
		for _, pid := range misses {
			if seq := pg.PathPorts(pid); seq != nil {
				t.Errorf("%s: PathPorts(%v) = %v, want nil", net.Name, pid, seq)
			}
			if d, err := pg.MinPathDelayUs(pid); err == nil {
				t.Errorf("%s: MinPathDelayUs(%v) = %g, want an error", net.Name, pid, d)
			}
		}
	}
}

// TestPathsMatchAllPaths holds PortGraph.Paths to Network.AllPaths on
// Figure 2 and on every lint-corpus configuration that builds (Relaxed,
// as the linter builds them), and every listed path to a port sequence
// that starts at its VL's source.
func TestPathsMatchAllPaths(t *testing.T) {
	nets := []*Network{Figure2Config()}
	files, err := filepath.Glob(filepath.Join("..", "lint", "testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("lint corpus not found: %v", err)
	}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		net, err := DecodeJSON(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		net.Name = filepath.Base(file)
		nets = append(nets, net)
	}
	built := 0
	for _, net := range nets {
		pg, err := BuildPortGraph(net, Relaxed)
		if err != nil {
			continue
		}
		built++
		if got, want := pg.Paths(), net.AllPaths(); !slices.Equal(got, want) {
			t.Errorf("%s: Paths() = %v, want AllPaths() %v", net.Name, got, want)
		}
		for _, pid := range pg.Paths() {
			if seq := pg.PathPorts(pid); len(seq) == 0 || seq[0].From != pg.VL(pid.VL).Source {
				t.Errorf("%s: path %v crosses %v", net.Name, pid, seq)
			}
		}
	}
	if built < 2 {
		t.Fatalf("only %d configurations built", built)
	}
}

func TestTopologicalOrder(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[PortID]int{}
	for i, id := range pg.Order {
		pos[id] = i
	}
	if len(pos) != len(pg.Ports) {
		t.Fatalf("order covers %d ports, want %d", len(pos), len(pg.Ports))
	}
	for _, pid := range pg.Net.AllPaths() {
		seq := pg.PathPorts(pid)
		for k := 0; k+1 < len(seq); k++ {
			if pos[seq[k]] >= pos[seq[k+1]] {
				t.Errorf("path %v: port %v should precede %v in topological order",
					pid, seq[k], seq[k+1])
			}
		}
	}
}

func TestCyclicPortDependenciesRejected(t *testing.T) {
	n := &Network{
		Name:       "cyclic",
		Params:     DefaultParams(),
		EndSystems: []string{"a", "b", "c", "d"},
		Switches:   []string{"X", "Y"},
		VLs: []*VirtualLink{
			{ID: "f1", Source: "a", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
				Paths: [][]string{{"a", "X", "Y", "c"}}},
			{ID: "f2", Source: "c2", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
				Paths: [][]string{{"c2", "Y", "X", "b"}}},
		},
	}
	// f1 uses X->Y then Y->c; f2 uses Y->X then X->b: no cycle yet.
	n.EndSystems = append(n.EndSystems, "c2")
	if _, err := BuildPortGraph(n, Strict); err != nil {
		t.Fatalf("two opposite transits are not cyclic at port level: %v", err)
	}
	// Add flows closing the loop: X->Y feeds Y->X' and vice versa needs
	// a chain X->Y ... back to X->Y. Build it with two relay flows.
	n.EndSystems = append(n.EndSystems, "a2", "d2")
	n.Switches = append(n.Switches, "Z")
	n.VLs = append(n.VLs,
		&VirtualLink{ID: "f3", Source: "a2", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
			Paths: [][]string{{"a2", "X", "Y", "Z", "d"}}},
		&VirtualLink{ID: "f4", Source: "d2", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
			Paths: [][]string{{"d2", "Z", "Y", "X", "b"}}},
	)
	// Port cycle: (X->Y) -> (Y->Z) via f3, (Y->Z)? f4 gives (Z->Y) -> (Y->X).
	// Still no cycle; force one with a flow Y->X->... wait; simplest true
	// cycle: f5 crossing Y then X then Y is illegal (node repeat). Use a
	// triangle of switches instead.
	n.Switches = append(n.Switches, "W")
	n.EndSystems = append(n.EndSystems, "p", "q", "r", "p2", "q2", "r2")
	n.VLs = append(n.VLs,
		&VirtualLink{ID: "g1", Source: "p", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
			Paths: [][]string{{"p", "X", "W", "Z", "q"}}}, // X->W feeds W->Z... need W
	)
	// Triangle cycle: (X->W)->(W->Z) [g1], (W->Z)->(Z->X) [g2], (Z->X)->(X->W) [g3].
	n.VLs = append(n.VLs,
		&VirtualLink{ID: "g2", Source: "q2", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
			Paths: [][]string{{"q2", "W", "Z", "X", "r"}}},
		&VirtualLink{ID: "g3", Source: "r2", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
			Paths: [][]string{{"r2", "Z", "X", "W", "p2"}}},
	)
	if _, err := BuildPortGraph(n, Strict); err == nil {
		t.Fatal("expected cyclic port dependency graph to be rejected")
	}
}

func TestFlowsSharingPath(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	shared := pg.FlowsSharingPath(PathID{VL: "v1", PathIdx: 0})
	if len(shared) != 4 {
		t.Fatalf("v1 shares ports with v1..v4, got %v", shared)
	}
	if shared["v2"] != (PortID{"S1", "S3"}) {
		t.Errorf("v2 first meets v1 at S1->S3, got %v", shared["v2"])
	}
	if shared["v3"] != (PortID{"S3", "e6"}) {
		t.Errorf("v3 first meets v1 at S3->e6, got %v", shared["v3"])
	}
	if _, ok := shared["v5"]; ok {
		t.Error("v5 does not share any output port with v1")
	}
}

func TestMulticastSharedPortCountedOnce(t *testing.T) {
	pg, err := BuildPortGraph(Figure1Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	// v6 is multicast with shared prefix e1->S1: the port e1->S1 must list
	// v6 exactly once.
	p := pg.Ports[PortID{"e1", "S1"}]
	count := 0
	for _, f := range p.Flows {
		if f.VL.ID == "v6" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("multicast VL v6 listed %d times on shared port, want 1", count)
	}
}

func TestUtilizationReport(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	u := pg.UtilizationReport()
	// S3->e6 carries 4 VLs of rho = 1 bit/us each on a 100 bit/us link.
	if got, want := u[PortID{"S3", "e6"}], 0.04; got != want {
		t.Errorf("utilization of S3->e6 = %g, want %g", got, want)
	}
	for id, v := range u {
		if v <= 0 || v >= 1 {
			t.Errorf("port %v utilization %g out of (0,1)", id, v)
		}
	}
}

// TestLinkLoadsMatchesUtilizationReport checks the two load views agree:
// Network.LinkLoads (consumed by the configuration generator's admission
// gate and the AFDX013 analyzer) divided by the link rate must equal the
// port graph's UtilizationReport on every port the graph derives.
func TestLinkLoadsMatchesUtilizationReport(t *testing.T) {
	net := Figure2Config()
	pg, err := BuildPortGraph(net, Strict)
	if err != nil {
		t.Fatal(err)
	}
	u := pg.UtilizationReport()
	loads := net.LinkLoads()
	if len(loads) != len(u) {
		t.Fatalf("LinkLoads covers %d links, UtilizationReport %d ports", len(loads), len(u))
	}
	for id, util := range u {
		got := loads[id] / pg.Ports[id].RateBitsPerUs
		if diff := got - util; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("link %v: LinkLoads utilization %g, UtilizationReport %g", id, got, util)
		}
	}
}

// A VL whose paths reach a port through two links is a multicast tree
// violation: validation rejects it (AFDX006) in every mode, before the
// build records any flow.
func TestVLEntersPortFromTwoLinksRejected(t *testing.T) {
	n := Figure2Config()
	// Give v1 a second path that re-enters S3->e6 from another direction.
	n.VLs[0].Paths = append(n.VLs[0].Paths, []string{"e1", "S1", "S3", "e6"})
	// Identical path: allowed (counted once). Now corrupt it:
	n.VLs[0].Paths[1] = []string{"e1", "S1", "S2", "S3", "e6"}
	for _, mode := range []ValidationMode{Strict, Relaxed} {
		_, err := BuildPortGraph(n, mode)
		if err == nil || !strings.Contains(err.Error(), "[AFDX006]") {
			t.Errorf("mode %d: got %v, want the AFDX006 rejection of v1 reaching S3 from both S1 and S2", mode, err)
		}
	}
}

func TestMinPathDelayUs(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pg.MinPathDelayUs(PathID{VL: "v1", PathIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	if d != 168 { // 3 ports * (16 us latency + 40 us min-frame time)
		t.Errorf("floor of v1 = %g, want 168", d)
	}
	if _, err := pg.MinPathDelayUs(PathID{VL: "zz", PathIdx: 9}); err == nil {
		t.Error("unknown path should error")
	}
}
