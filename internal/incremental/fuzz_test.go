package incremental_test

import (
	"reflect"
	"testing"

	"afdx/internal/incremental"
)

// FuzzParseDelta fuzzes the delta command parser that afdx-bounds
// -delta and the served /whatif and /apply bodies feed user text into.
// It must never panic, and every delta it accepts except add (whose
// String form keeps only the VL ID) must round-trip: parsing its String
// form yields the same delta.
func FuzzParseDelta(f *testing.F) {
	for _, seed := range []string{
		"bag v1 16",
		"smax v2 200",
		"priority v1 1",
		"drop v5",
		"reroute v1 es1,s1,es2 es1,s2,es3",
		`add {"id":"v9","source":"es1","bagMs":4,"sMaxBytes":200,"sMinBytes":64,"paths":[["es1","s1","es2"]]}`,
		"", "bag v1", "smax v1 x", "teleport v1", "reroute v1 one-node",
		"bag v1 NaN",
		"bag v1 Inf",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := incremental.ParseDelta(s)
		if err != nil || d.Op == incremental.OpAddVL {
			return
		}
		back, err := incremental.ParseDelta(d.String())
		if err != nil {
			t.Fatalf("ParseDelta(%q) = %+v, but its String %q does not parse: %v", s, d, d.String(), err)
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("ParseDelta(%q) = %+v, but its String %q parses to %+v", s, d, d.String(), back)
		}
	})
}
