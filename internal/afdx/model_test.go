package afdx

import (
	"math"
	"strings"
	"testing"
)

func TestVirtualLinkDerivedQuantities(t *testing.T) {
	v := &VirtualLink{ID: "v", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100}
	if got := v.BAGUs(); got != 4000 {
		t.Errorf("BAGUs = %g, want 4000", got)
	}
	if got := v.SMaxBits(); got != 4000 {
		t.Errorf("SMaxBits = %g, want 4000", got)
	}
	if got := v.SMinBits(); got != 800 {
		t.Errorf("SMinBits = %g, want 800", got)
	}
	if got := v.RhoBitsPerUs(); got != 1 {
		t.Errorf("Rho = %g, want 1 bit/us", got)
	}
	if got := v.CMaxUs(100); got != 40 {
		t.Errorf("CMaxUs = %g, want 40", got)
	}
	if got := v.CMinUs(100); got != 8 {
		t.Errorf("CMinUs = %g, want 8", got)
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.LinkRateMbps != 100 || p.SwitchLatencyUs != 16 || p.SourceLatencyUs != 16 {
		t.Errorf("unexpected defaults: %+v", p)
	}
	if got := p.RateBitsPerUs(); got != 100 {
		t.Errorf("RateBitsPerUs = %g, want 100", got)
	}
}

func TestFigure2ConfigValidates(t *testing.T) {
	n := Figure2Config()
	if err := n.Validate(Strict); err != nil {
		t.Fatalf("figure 2 config should be valid: %v", err)
	}
	st := n.ComputeStats()
	if st.NumVLs != 5 || st.NumPaths != 5 || st.NumSwitches != 3 || st.NumEndSystems != 7 {
		t.Errorf("unexpected stats: %+v", st)
	}
	if st.MaxPathLen != 2 {
		t.Errorf("max path length = %d switches, want 2", st.MaxPathLen)
	}
}

func TestFigure1ConfigValidates(t *testing.T) {
	n := Figure1Config()
	if err := n.Validate(Strict); err != nil {
		t.Fatalf("figure 1 config should be valid: %v", err)
	}
	vx := n.VL("vx")
	if vx == nil {
		t.Fatal("vx missing")
	}
	if len(vx.Paths) != 1 || len(vx.Paths[0]) != 3 {
		t.Errorf("vx should be the unicast path e5->S4->e8, got %v", vx.Paths)
	}
	v6 := n.VL("v6")
	if v6 == nil || len(v6.Paths) != 2 {
		t.Fatal("v6 should be a 2-destination multicast VL")
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() *Network { return Figure2Config() }
	cases := []struct {
		name   string
		mutate func(*Network)
		frag   string
	}{
		{"duplicate VL id", func(n *Network) { n.VLs[1].ID = "v1" }, "duplicate"},
		{"source not ES", func(n *Network) { n.VLs[0].Source = "S1" }, "not an end system"},
		{"negative BAG", func(n *Network) { n.VLs[0].BAGMs = -4 }, "non-positive BAG"},
		{"non power of two BAG", func(n *Network) { n.VLs[0].BAGMs = 3 }, "power of two"},
		{"oversized frame", func(n *Network) { n.VLs[0].SMaxBytes = 2000 }, "exceeds Ethernet"},
		{"undersized frame", func(n *Network) { n.VLs[0].SMinBytes = 10 }, "below Ethernet"},
		{"smin above smax", func(n *Network) {
			n.VLs[0].SMinBytes = 600
			n.VLs[0].SMaxBytes = 500
		}, "s_min"},
		{"short path", func(n *Network) { n.VLs[0].Paths[0] = []string{"e1", "e6"} }, "too short"},
		{"wrong path start", func(n *Network) { n.VLs[0].Paths[0][0] = "e2" }, "starts at"},
		{"interior not switch", func(n *Network) { n.VLs[0].Paths[0][1] = "e3" }, "not a switch"},
		{"path node repeated", func(n *Network) {
			n.VLs[0].Paths[0] = []string{"e1", "S1", "S3", "S1", "e6"}
		}, ""},
		{"ES on two switches", func(n *Network) {
			n.VLs = append(n.VLs, &VirtualLink{
				ID: "bad", Source: "e1", BAGMs: 4, SMaxBytes: 500, SMinBytes: 500,
				Paths: [][]string{{"e1", "S2", "S3", "e6"}},
			})
		}, "attached to both"},
		{"zero rate", func(n *Network) { n.Params.LinkRateMbps = 0 }, "link rate"},
		{"negative latency", func(n *Network) { n.Params.SwitchLatencyUs = -1 }, "latency"},
		{"duplicate node", func(n *Network) { n.Switches = append(n.Switches, "e1") }, "declared twice"},
		{"no paths", func(n *Network) { n.VLs[0].Paths = nil }, "no path"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := base()
			c.mutate(n)
			err := n.Validate(Strict)
			if err == nil {
				t.Fatalf("expected validation error")
			}
			if c.frag != "" && !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not mention %q", err, c.frag)
			}
		})
	}
}

func TestValidateRelaxedAllowsSweepValues(t *testing.T) {
	n := Figure2Config()
	n.VLs[0].BAGMs = 3.5    // not a power of two
	n.VLs[0].SMinBytes = 50 // below Ethernet minimum
	n.VLs[0].SMaxBytes = 50 // below Ethernet minimum
	if err := n.Validate(Relaxed); err != nil {
		t.Errorf("relaxed mode should allow sweep values: %v", err)
	}
	if err := n.Validate(Strict); err == nil {
		t.Error("strict mode should reject sweep values")
	}
}

// TestValidateNonFiniteBAGInEveryMode pins that a BAG whose microsecond
// value is NaN or +Inf is an error even under Relaxed validation: the
// trajectory engine's candidate enumeration never terminates on an
// infinite BAG, and a NaN BAG surfaces as an engine failure.
func TestValidateNonFiniteBAGInEveryMode(t *testing.T) {
	for _, bag := range []float64{math.NaN(), math.Inf(1), 1e306} {
		for _, mode := range []ValidationMode{Strict, Relaxed} {
			n := Figure2Config()
			n.VLs[0].BAGMs = bag
			err := n.Validate(mode)
			if err == nil || !strings.Contains(err.Error(), "AFDX004") || !strings.Contains(err.Error(), "non-finite BAG") {
				t.Errorf("BAG %g ms, mode %v: got %v, want an AFDX004 non-finite BAG error", bag, mode, err)
			}
		}
	}
}

func TestMulticastTreeValidation(t *testing.T) {
	n := Figure1Config()
	// Break the tree property: reach S4 from two different predecessors.
	v6 := n.VL("v6")
	v6.Paths[1] = []string{"e1", "S1", "S3", "S4", "e8"}
	// Now path 1 reaches S4 from S3; make another path reach S4 from S1.
	v6.Paths = append(v6.Paths, []string{"e1", "S1", "S4", "e8b"})
	n.EndSystems = append(n.EndSystems, "e8b")
	if err := n.Validate(Strict); err == nil {
		t.Error("expected tree violation to be rejected")
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, k := range []float64{1, 2, 4, 8, 16, 32, 64, 128} {
		if !isPowerOfTwo(k) {
			t.Errorf("%g should be a power of two", k)
		}
	}
	for _, k := range []float64{0, -2, 3, 5, 6, 2.5, math.Pi} {
		if isPowerOfTwo(k) {
			t.Errorf("%g should not be a power of two", k)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Figure2Config().ComputeStats().String()
	if !strings.Contains(s, "VLs: 5") || !strings.Contains(s, "4:5") {
		t.Errorf("unexpected stats rendering: %q", s)
	}
}

func TestNetworkAllPathsDeterministic(t *testing.T) {
	n := Figure1Config()
	a := n.AllPaths()
	b := n.AllPaths()
	if len(a) != len(b) {
		t.Fatal("AllPaths not deterministic in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("AllPaths not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if a[0].String() == "" {
		t.Error("PathID.String should not be empty")
	}
}
