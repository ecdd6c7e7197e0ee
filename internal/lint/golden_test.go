package lint_test

import (
	"path/filepath"
	"testing"

	afdx "afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/lint"
)

// TestCorpusReportsPinned pins each corpus file's full rendered report
// byte for byte: every diagnostic's code, severity, location, message
// and fix suggestion, their order, and the summary line with the
// skipped analyzers. TestGoldenCorpus checks only the set of codes.
func TestCorpusReportsPinned(t *testing.T) {
	want := map[string]string{
		"bad_attach.json": "AFDX012 error   [node=e1] end system \"e1\" attached to both \"S1\" and \"S2\"\n" +
			"        fix: an end system connects to exactly one switch port\n" +
			"badattach: 1 error(s), 0 warning(s), 0 info [stability, grouping, deadline skipped: port graph not derivable]\n",
		"bad_bag.json": "AFDX004 error   [vl=v1] VL v1 BAG 3 ms is not a power of two in [1,128] ms\n" +
			"        fix: ARINC 664 BAGs are the powers of two in [1,128] ms\n" +
			"badbag: 1 error(s), 0 warning(s), 0 info\n",
		"bad_frame.json": "AFDX005 error   [vl=v1] VL v1 s_max 2000B exceeds Ethernet maximum 1518B\n" +
			"        fix: cap s_max at the Ethernet MTU\n" +
			"badframe: 1 error(s), 0 warning(s), 0 info\n",
		"bad_network.json": "AFDX011 error   non-positive link rate -5\n" +
			"        fix: set params.linkRateMbps to a positive rate (AFDX uses 100 Mb/s)\n" +
			"badnet: 1 error(s), 0 warning(s), 0 info [stability, grouping, deadline skipped: port graph not derivable]\n",
		"bad_tree.json": "AFDX006 error   [vl=v1 node=S2] VL v1 path 1 reaches \"S2\" from \"S3\", but another path reaches it from \"S1\" (multicast routing must be a tree)\n" +
			"        fix: reroute so that all paths reach each shared node from the same predecessor\n" +
			"badtree: 1 error(s), 0 warning(s), 0 info [stability, grouping, deadline skipped: port graph not derivable]\n",
		"clean.json": "clean: 0 error(s), 0 warning(s), 0 info\n",
		"deadline.json": "AFDX009 warning [vl=v1] path v1/0 idle-network floor 1395.2 us exceeds its BAG 1000 us: the BAG-as-deadline check can never pass\n" +
			"        fix: shorten the path, raise link rates, or enlarge the BAG\n" +
			"AFDX009 warning [vl=v2] path v2/0 idle-network floor 1395.2 us exceeds its BAG 1000 us: the BAG-as-deadline check can never pass\n" +
			"        fix: shorten the path, raise link rates, or enlarge the BAG\n" +
			"deadline: 0 error(s), 2 warning(s), 0 info\n",
		"dup_vl.json": "AFDX003 error   [vl=v1] duplicate virtual link ID \"v1\"\n" +
			"        fix: VL identifiers must be unique network-wide\n" +
			"dupvl: 1 error(s), 0 warning(s), 0 info [stability, grouping, deadline skipped: port graph not derivable]\n",
		"jitter.json": "AFDX008 warning [node=e1] end system \"e1\" output jitter 674.0 us exceeds the ARINC 664 cap of 500 us (5 VLs hosted)\n" +
			"        fix: move VLs to another end system or reduce their s_max\n" +
			"jitter: 0 error(s), 1 warning(s), 0 info\n",
		"multi.json": "AFDX003 error   [vl=v1] duplicate virtual link ID \"v1\"\n" +
			"        fix: VL identifiers must be unique network-wide\n" +
			"AFDX004 error   [vl=v1] VL v1 BAG 3 ms is not a power of two in [1,128] ms\n" +
			"        fix: ARINC 664 BAGs are the powers of two in [1,128] ms\n" +
			"AFDX010 warning [node=S2] switch \"S2\" is not used by any VL path\n" +
			"        fix: remove the declaration or route a VL through it\n" +
			"multi: 2 error(s), 1 warning(s), 0 info [stability, grouping, deadline skipped: port graph not derivable]\n",
		"no_grouping.json": "AFDX007 info    no port multiplexes two flows through a shared input link: the grouping (serialization) refinement cannot tighten any bound\n" +
			"        fix: expected on lightly-multiplexed configurations; -no-grouping would give identical bounds\n" +
			"nogroup: 0 error(s), 0 warning(s), 1 info\n",
		"no_path.json": "AFDX002 error   [vl=v1] VL v1 has no path\n" +
			"        fix: route the VL to at least one destination end system\n" +
			"nopath: 1 error(s), 0 warning(s), 0 info [stability, grouping, deadline skipped: port graph not derivable]\n",
		"nonfinite_bag.json": "AFDX004 error   [vl=v1] VL v1 has non-finite BAG 1e+306 ms (+Inf us)\n" +
			"        fix: set bagMs to a power of two in [1,128]\n" +
			"nonfinitebag: 1 error(s), 0 warning(s), 0 info [stability, grouping, deadline skipped: port graph not derivable]\n",
		"orphan.json": "AFDX010 warning [link=S2->e3] link rate override S2->e3 applies to a link no VL uses\n" +
			"        fix: remove the override or fix the link it was meant for\n" +
			"AFDX010 warning [node=S2] switch \"S2\" is not used by any VL path\n" +
			"        fix: remove the declaration or route a VL through it\n" +
			"AFDX010 warning [node=e3] end system \"e3\" is not used by any VL path\n" +
			"        fix: remove the declaration or route a VL through it\n" +
			"orphan: 0 error(s), 3 warning(s), 0 info\n",
		"overbudget.json": "AFDX013 warning [link=S1->e0] link S1->e0 utilization 0.850 exceeds the 75% admission budget\n" +
			"        fix: keep links under the admission budget: certified bounds degrade sharply as links fill\n" +
			"overbudget: 0 error(s), 1 warning(s), 0 info\n",
		"routing_loop.json": "AFDX002 error   cyclic port dependencies among 3 ports: S1->S2, S2->S3, S3->S1\n" +
			"        fix: break the loop: the holistic analyses require a feed-forward configuration\n" +
			"loop: 1 error(s), 0 warning(s), 0 info [stability, grouping, deadline skipped: port graph not derivable]\n",
		"unstable_port.json": "AFDX001 error   [link=S1->e0] port S1->e0 unstable: utilization 1.093 (aggregate rate 109.296 bits/us exceeds link rate 100.000)\n" +
			"        fix: move VLs off the port, raise the link rate, or enlarge BAGs: no finite delay bound exists\n" +
			"AFDX013 error   [link=S1->e0] link S1->e0 admission overrun: contract rate 109.296 bits/us is 109.3% of the link rate\n" +
			"        fix: move VLs off the link, raise its rate, or enlarge BAGs: busy periods diverge at full utilization\n" +
			"unstable: 2 error(s), 0 warning(s), 0 info\n",
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("%d corpus files, %d pinned reports", len(files), len(want))
	}
	for _, file := range files {
		name := filepath.Base(file)
		got := renderText(t, lint.Run(loadCorpus(t, name), lint.DefaultOptions()))
		if got != want[name] {
			t.Errorf("%s: report drifted from the pinned text\ngot:\n%swant:\n%s", name, got, want[name])
		}
	}
}

// routingMix is a configuration that trips most routing, attachment,
// tree and network-level rules at once: a source that is not an end
// system, a path too short, a wrong start, a non-ES destination, a
// loop back to the source, a non-switch interior node, a repeated node,
// attachment conflicts, a tree violation, a VL without paths, a
// negative priority, and link-rate overrides naming unknown nodes.
func routingMix() *afdx.Network {
	vl := func(id, src string, paths ...[]string) *afdx.VirtualLink {
		return &afdx.VirtualLink{ID: id, Source: src, BAGMs: 4, SMaxBytes: 500, SMinBytes: 64, Paths: paths}
	}
	n := &afdx.Network{
		Name:       "routing-mix",
		Params:     afdx.DefaultParams(),
		EndSystems: []string{"e1", "e2", "e3", "e4"},
		Switches:   []string{"S1", "S2", "S3"},
		LinkRates: []afdx.LinkRate{
			{From: "e1", To: "S1", Mbps: 100},
			{From: "ghost", To: "S1", Mbps: 100},
			{From: "S1", To: "phantom", Mbps: 10},
		},
		VLs: []*afdx.VirtualLink{
			vl("v1", "S1", []string{"S1", "S2", "e2"}),
			vl("v2", "e1", []string{"e1", "S1"}, []string{"e2", "S1", "e3"}),
			vl("v3", "e1", []string{"e1", "S1", "S2"}, []string{"e1", "S1", "e1"}),
			vl("v4", "e1", []string{"e1", "e2", "S1", "e3"}, []string{"e1", "S1", "S2", "S1", "e4"}),
			vl("v5", "e4", []string{"e4", "S2", "e3"}),
			vl("v6", "e2"),
			vl("v7", "e1", []string{"e1", "S1", "S2", "e2"}, []string{"e1", "S1", "S3", "S2", "e3"}),
		},
	}
	n.VLs[5].Priority = -1
	return n
}

// TestRoutingMixPinned pins the routing-mix configuration's lint report
// byte for byte, and the structural collectors' unsorted output, whose
// first error is the text Validate (and so BuildPortGraph) returns.
func TestRoutingMixPinned(t *testing.T) {
	net := routingMix()
	wantReport :=
		"AFDX002 error   [vl=v1] VL v1 source \"S1\" is not an end system\n" +
			"        fix: VL sources must be declared end systems (mono-transmitter rule)\n" +
			"AFDX002 error   [vl=v2] VL v2 path 0 too short ([e1 S1]): need source ES, >=1 switch, dest ES\n" +
			"        fix: an AFDX path is source ES, one or more switches, destination ES\n" +
			"AFDX002 error   [vl=v2 node=e2] VL v2 path 1 starts at \"e2\", want source \"e1\"\n" +
			"        fix: paths must start at the VL's source\n" +
			"AFDX002 error   [vl=v3] VL v3 path 1 loops back to its source\n" +
			"        fix: a VL cannot be its own destination\n" +
			"AFDX002 error   [vl=v3 node=S2] VL v3 path 0 ends at \"S2\" which is not an end system\n" +
			"        fix: destinations must be declared end systems\n" +
			"AFDX002 error   [vl=v3 node=e1] VL v3 path 1 visits \"e1\" twice\n" +
			"        fix: remove the routing loop\n" +
			"AFDX002 error   [vl=v4 node=S1] VL v4 path 1 visits \"S1\" twice\n" +
			"        fix: remove the routing loop\n" +
			"AFDX002 error   [vl=v4 node=e2] VL v4 path 0 interior node \"e2\" is not a switch\n" +
			"        fix: interior path nodes must be switches\n" +
			"AFDX002 error   [vl=v6] VL v6 has no path\n" +
			"        fix: route the VL to at least one destination end system\n" +
			"AFDX006 error   [vl=v2 node=S1] VL v2 path 1 reaches \"S1\" from \"e2\", but another path reaches it from \"e1\" (multicast routing must be a tree)\n" +
			"        fix: reroute so that all paths reach each shared node from the same predecessor\n" +
			"AFDX006 error   [vl=v4 node=S1] VL v4 path 1 reaches \"S1\" from \"S2\", but another path reaches it from \"e2\" (multicast routing must be a tree)\n" +
			"        fix: reroute so that all paths reach each shared node from the same predecessor\n" +
			"AFDX006 error   [vl=v4 node=S1] VL v4 path 1 reaches \"S1\" from \"e1\", but another path reaches it from \"e2\" (multicast routing must be a tree)\n" +
			"        fix: reroute so that all paths reach each shared node from the same predecessor\n" +
			"AFDX006 error   [vl=v7 node=S2] VL v7 path 1 reaches \"S2\" from \"S3\", but another path reaches it from \"S1\" (multicast routing must be a tree)\n" +
			"        fix: reroute so that all paths reach each shared node from the same predecessor\n" +
			"AFDX011 error   [link=S1->phantom] link rate for unknown node \"phantom\"\n" +
			"        fix: declare the node or drop the override\n" +
			"AFDX011 error   [link=ghost->S1] link rate for unknown node \"ghost\"\n" +
			"        fix: declare the node or drop the override\n" +
			"AFDX011 error   [vl=v6] VL v6 has negative priority -1\n" +
			"        fix: priorities are 0 (highest) and positive integers\n" +
			"AFDX012 error   [node=e1] end system \"e1\" attached to both \"S1\" and \"e2\"\n" +
			"        fix: an end system connects to exactly one switch port\n" +
			"AFDX012 error   [node=e2] end system \"e2\" attached to both \"S2\" and \"S1\"\n" +
			"        fix: an end system connects to exactly one switch port\n" +
			"AFDX012 error   [node=e3] end system \"e3\" attached to both \"S1\" and \"S2\"\n" +
			"        fix: an end system connects to exactly one switch port\n" +
			"AFDX012 error   [node=e3] end system \"e3\" attached to both \"S1\" and \"S2\"\n" +
			"        fix: an end system connects to exactly one switch port\n" +
			"AFDX012 error   [node=e4] end system \"e4\" attached to both \"S1\" and \"S2\"\n" +
			"        fix: an end system connects to exactly one switch port\n" +
			"AFDX010 warning [link=S1->phantom] link rate override S1->phantom applies to a link no VL uses\n" +
			"        fix: remove the override or fix the link it was meant for\n" +
			"AFDX010 warning [link=ghost->S1] link rate override ghost->S1 applies to a link no VL uses\n" +
			"        fix: remove the override or fix the link it was meant for\n" +
			"routing-mix: 21 error(s), 2 warning(s), 0 info [stability, grouping, deadline skipped: port graph not derivable]\n"
	if got := renderText(t, lint.Run(net, lint.DefaultOptions())); got != wantReport {
		t.Errorf("lint report drifted from the pinned text\ngot:\n%swant:\n%s", got, wantReport)
	}
	var got string
	for _, d := range net.StructuralDiagnostics(afdx.Strict) {
		got += d.String() + "\n        fix: " + d.Suggestion + "\n"
	}
	wantStructural :=
		"AFDX011 error   [link=ghost->S1] link rate for unknown node \"ghost\"\n" +
			"        fix: declare the node or drop the override\n" +
			"AFDX011 error   [link=S1->phantom] link rate for unknown node \"phantom\"\n" +
			"        fix: declare the node or drop the override\n" +
			"AFDX011 error   [vl=v6] VL v6 has negative priority -1\n" +
			"        fix: priorities are 0 (highest) and positive integers\n" +
			"AFDX002 error   [vl=v1] VL v1 source \"S1\" is not an end system\n" +
			"        fix: VL sources must be declared end systems (mono-transmitter rule)\n" +
			"AFDX002 error   [vl=v2] VL v2 path 0 too short ([e1 S1]): need source ES, >=1 switch, dest ES\n" +
			"        fix: an AFDX path is source ES, one or more switches, destination ES\n" +
			"AFDX002 error   [vl=v2 node=e2] VL v2 path 1 starts at \"e2\", want source \"e1\"\n" +
			"        fix: paths must start at the VL's source\n" +
			"AFDX012 error   [node=e2] end system \"e2\" attached to both \"S2\" and \"S1\"\n" +
			"        fix: an end system connects to exactly one switch port\n" +
			"AFDX002 error   [vl=v3 node=S2] VL v3 path 0 ends at \"S2\" which is not an end system\n" +
			"        fix: destinations must be declared end systems\n" +
			"AFDX002 error   [vl=v3] VL v3 path 1 loops back to its source\n" +
			"        fix: a VL cannot be its own destination\n" +
			"AFDX002 error   [vl=v3 node=e1] VL v3 path 1 visits \"e1\" twice\n" +
			"        fix: remove the routing loop\n" +
			"AFDX002 error   [vl=v4 node=e2] VL v4 path 0 interior node \"e2\" is not a switch\n" +
			"        fix: interior path nodes must be switches\n" +
			"AFDX012 error   [node=e1] end system \"e1\" attached to both \"S1\" and \"e2\"\n" +
			"        fix: an end system connects to exactly one switch port\n" +
			"AFDX002 error   [vl=v4 node=S1] VL v4 path 1 visits \"S1\" twice\n" +
			"        fix: remove the routing loop\n" +
			"AFDX012 error   [node=e4] end system \"e4\" attached to both \"S1\" and \"S2\"\n" +
			"        fix: an end system connects to exactly one switch port\n" +
			"AFDX012 error   [node=e3] end system \"e3\" attached to both \"S1\" and \"S2\"\n" +
			"        fix: an end system connects to exactly one switch port\n" +
			"AFDX002 error   [vl=v6] VL v6 has no path\n" +
			"        fix: route the VL to at least one destination end system\n" +
			"AFDX012 error   [node=e3] end system \"e3\" attached to both \"S1\" and \"S2\"\n" +
			"        fix: an end system connects to exactly one switch port\n" +
			"AFDX006 error   [vl=v2 node=S1] VL v2 path 1 reaches \"S1\" from \"e2\", but another path reaches it from \"e1\" (multicast routing must be a tree)\n" +
			"        fix: reroute so that all paths reach each shared node from the same predecessor\n" +
			"AFDX006 error   [vl=v4 node=S1] VL v4 path 1 reaches \"S1\" from \"e1\", but another path reaches it from \"e2\" (multicast routing must be a tree)\n" +
			"        fix: reroute so that all paths reach each shared node from the same predecessor\n" +
			"AFDX006 error   [vl=v4 node=S1] VL v4 path 1 reaches \"S1\" from \"S2\", but another path reaches it from \"e2\" (multicast routing must be a tree)\n" +
			"        fix: reroute so that all paths reach each shared node from the same predecessor\n" +
			"AFDX006 error   [vl=v7 node=S2] VL v7 path 1 reaches \"S2\" from \"S3\", but another path reaches it from \"S1\" (multicast routing must be a tree)\n" +
			"        fix: reroute so that all paths reach each shared node from the same predecessor\n"
	if got != wantStructural {
		t.Errorf("structural diagnostics drifted from the pinned text\ngot:\n%swant:\n%s", got, wantStructural)
	}
}

// TestIndustrialReportPinned pins the seed-1 industrial configuration's
// full rendered report byte for byte (one AFDX008 warning per
// overloaded end system).
func TestIndustrialReportPinned(t *testing.T) {
	net, err := configgen.Generate(configgen.DefaultSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := lint.Run(net, lint.DefaultOptions())
	want :=
		"AFDX008 warning [node=e024] end system \"e024\" output jitter 665.5 us exceeds the ARINC 664 cap of 500 us (11 VLs hosted)\n" +
			"        fix: move VLs to another end system or reduce their s_max\n" +
			"AFDX008 warning [node=e039] end system \"e039\" output jitter 501.7 us exceeds the ARINC 664 cap of 500 us (9 VLs hosted)\n" +
			"        fix: move VLs to another end system or reduce their s_max\n" +
			"AFDX008 warning [node=e045] end system \"e045\" output jitter 657.0 us exceeds the ARINC 664 cap of 500 us (13 VLs hosted)\n" +
			"        fix: move VLs to another end system or reduce their s_max\n" +
			"AFDX008 warning [node=e059] end system \"e059\" output jitter 501.6 us exceeds the ARINC 664 cap of 500 us (16 VLs hosted)\n" +
			"        fix: move VLs to another end system or reduce their s_max\n" +
			"AFDX008 warning [node=e093] end system \"e093\" output jitter 513.4 us exceeds the ARINC 664 cap of 500 us (12 VLs hosted)\n" +
			"        fix: move VLs to another end system or reduce their s_max\n" +
			"AFDX008 warning [node=e104] end system \"e104\" output jitter 509.4 us exceeds the ARINC 664 cap of 500 us (9 VLs hosted)\n" +
			"        fix: move VLs to another end system or reduce their s_max\n" +
			"industrial-seed1: 0 error(s), 6 warning(s), 0 info\n"
	if got := renderText(t, rep); got != want {
		t.Errorf("report drifted from the pinned text\ngot:\n%swant:\n%s", got, want)
	}
}
