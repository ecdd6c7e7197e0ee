package conformance

import (
	"strings"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
)

// campaignNet generates the first configuration of the campaign family
// with the given seed.
func campaignNet(t *testing.T, seed int64) *afdx.Network {
	t.Helper()
	net, err := configgen.Generate(campaignSpec(seed, 1))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestServedParityTier runs the served-parity invariant end to end on a
// generated configuration: a live afdx-serve instance answers a seeded
// script over real HTTP and the oracle re-derives every answer cold. A
// clean verdict pins the serving layer to the engines bit for bit.
func TestServedParityTier(t *testing.T) {
	net := campaignNet(t, 17)
	o := NewOracle()
	o.Served = true
	o.only = InvServedParity // the wire tier alone; the rest of the lattice has its own tests
	vs, err := o.Check(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("served-parity violations on a clean configuration: %v", vs)
	}
}

// The tier must be opt-in: a default oracle never reports (or runs) it.
func TestServedTierOffByDefault(t *testing.T) {
	o := NewOracle()
	if o.Served {
		t.Fatal("NewOracle enables the served tier; it must be opt-in")
	}
	net := campaignNet(t, 17)
	vs, err := o.Check(net)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if v.Invariant == InvServedParity {
			t.Fatalf("served-parity violation from a default oracle: %v", v)
		}
	}
}

// The Violation detail must carry enough to locate a divergence: which
// field, at which worker count, in which recorded round.
func TestServedMismatchDetail(t *testing.T) {
	v := Violation{InvServedParity, afdx.PathID{}, 2, 1, "served trajectory_us != cold anchor at parallel 1 (round 3)"}
	s := v.String()
	for _, want := range []string{"served-parity", "round 3", "parallel 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("violation string %q missing %q", s, want)
		}
	}
}
