package trajectory

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
)

// Differential tests of the flat hot path (flat.go) against the
// reference engine (reference_test.go). The contract is bit-identity: every
// PathDetail — delay, busy period, critical offset, candidate and
// interferer counts — must be exactly equal (==, no tolerance) at every
// worker count.

// engineVariants are the option sets the differential tests sweep.
var engineVariants = []struct {
	name string
	opts Options
}{
	{"grouped", Options{Grouping: true}},
	{"ungrouped", Options{}},
	{"shared", Options{Grouping: true, SharedTransition: true}},
}

// sameDetails fails unless the two results carry bit-identical path
// details.
func sameDetails(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if len(ref.Details) != len(got.Details) {
		t.Fatalf("%s: path count %d vs %d", label, len(ref.Details), len(got.Details))
	}
	for pid, rd := range ref.Details {
		gd, ok := got.Details[pid]
		if !ok {
			t.Fatalf("%s: path %v missing from flat result", label, pid)
		}
		if rd != gd {
			t.Errorf("%s: path %v: reference %+v vs flat %+v", label, pid, rd, gd)
		}
	}
	for pid, d := range ref.PathDelays {
		if d != got.PathDelays[pid] {
			t.Errorf("%s: path %v delay: %x vs %x", label, pid, d, got.PathDelays[pid])
		}
	}
}

// flatVsReference runs both engines over every option variant at
// workers 1 and N and requires bit-identical outcomes (or identical
// errors).
func flatVsReference(t *testing.T, label string, pg *afdx.PortGraph, variants []struct {
	name string
	opts Options
}) {
	t.Helper()
	ctx := context.Background()
	for _, v := range variants {
		for _, workers := range []int{1, 0} {
			opts := v.opts
			opts.Parallel = workers
			ref, rerr := analyzeReference(ctx, pg, opts)
			got, gerr := AnalyzeCtx(ctx, pg, opts)
			name := label + "/" + v.name
			if (rerr == nil) != (gerr == nil) {
				t.Fatalf("%s (workers=%d): reference err %v vs flat err %v", name, workers, rerr, gerr)
			}
			if rerr != nil {
				if rerr.Error() != gerr.Error() {
					t.Errorf("%s (workers=%d): error text differs:\n  reference: %v\n  flat:      %v", name, workers, rerr, gerr)
				}
				continue
			}
			sameDetails(t, name, ref, got)
		}
	}
}

// TestFlatMatchesReferenceFigure2 pins the paper's sample configuration
// across every option variant. The slow-last-hop variant gives
// interferers a transmission time that differs between the ports they
// share with a path, so the flat interference set must keep the max
// over those ports, as the reference does; no other sweep reaches that
// case.
func TestFlatMatchesReferenceFigure2(t *testing.T) {
	for _, c := range []struct {
		label string
		net   *afdx.Network
	}{{"fig2", afdx.Figure2Config()}, {"slowlasthop", slowLastHop()}} {
		pg, err := afdx.BuildPortGraph(c.net, afdx.Strict)
		if err != nil {
			t.Fatal(err)
		}
		flatVsReference(t, c.label, pg, engineVariants)
	}
}

// TestFlatMatchesReferenceMixedRates sweeps a generated configuration
// with a fast core, where some paths peak at a positive offset: there
// the grouping cap reads the input link's rate, which the flat index
// takes from the port graph's groups and the reference from the input
// port.
func TestFlatMatchesReferenceMixedRates(t *testing.T) {
	pg, err := afdx.BuildPortGraph(fastCoreSeed(t, 3), afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	flatVsReference(t, "seed3-120-fastcore", pg, engineVariants)
}

// TestFlatMatchesReferenceGoldenCorpus sweeps the lint golden corpus:
// every configuration that loads and builds is analysed by both
// engines; analysis failures (e.g. the unstable-port config) must fail
// identically.
func TestFlatMatchesReferenceGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob("../lint/testdata/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("golden corpus missing: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		net, err := afdx.LoadJSON(file, afdx.Strict)
		if err != nil {
			continue // invalid-on-purpose corpus entries
		}
		pg, err := afdx.BuildPortGraph(net, afdx.Strict)
		if err != nil {
			continue
		}
		flatVsReference(t, filepath.Base(file), pg, engineVariants)
	}
}

// testConfiggenSeeds is the shared body of the generated-configuration
// sweeps (the always-on slice here, the full 100-seed run in
// flat_full_test.go behind !race).
func testConfiggenSeeds(t *testing.T, lo, hi int64) {
	for seed := lo; seed <= hi; seed++ {
		spec := configgen.DefaultSpec(seed)
		spec.NumVLs = 60
		net, err := configgen.Generate(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pg, err := afdx.BuildPortGraph(net, afdx.Strict)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		flatVsReference(t, fmt.Sprintf("seed-%d", seed), pg, engineVariants[:2])
	}
}

// TestFlatMatchesReferenceConfiggen is the always-on generated sweep —
// small enough to stay fast under the race detector.
func TestFlatMatchesReferenceConfiggen(t *testing.T) {
	testConfiggenSeeds(t, 1, 10)
}

// TestCandidateOffsetsExactMultiples pins the enumerated step-point set
// when the alignment A_ij is an exact multiple of the BAG, both signs.
// The pre-fix start index negated the A_ij/T ratio, which skipped the
// first valid step points of every interferer with A_ij <= -T; the
// positive-multiple case pins that t = 0 (the k = A_ij/T step) stays
// excluded while the window endpoint steps stay in.
func TestCandidateOffsetsExactMultiples(t *testing.T) {
	mk := func(bagMs float64, aUs float64) interferer {
		return interferer{
			vl:  &afdx.VirtualLink{ID: "vx", BAGMs: bagMs, SMaxBytes: 100, SMinBytes: 100},
			aUs: aUs,
		}
	}
	cases := []struct {
		name string
		in   []interferer
		busy float64
		want []float64
	}{
		{
			// A_ij = +2T: steps t = k*1000 - 2000 need k > 2; the k = 2
			// step collapses onto t = 0 (already seeded) and is filtered.
			name: "positive-multiple",
			in:   []interferer{mk(1, 2000)},
			busy: 5500,
			want: []float64{0, 1000, 2000, 3000, 4000, 5000},
		},
		{
			// A_ij = -2T: every k >= 1 step is positive; the pre-fix code
			// started at k = 2 and silently dropped t = 3000.
			name: "negative-multiple",
			in:   []interferer{mk(1, -2000)},
			busy: 5500,
			want: []float64{0, 3000, 4000, 5000},
		},
		{
			name: "zero-alignment",
			in:   []interferer{mk(1, 0)},
			busy: 3500,
			want: []float64{0, 1000, 2000, 3000},
		},
		{
			// Two interferers, steps interleaved and overlapping: the
			// shared points dedup, the merged set stays sorted.
			name: "merged-pair",
			in:   []interferer{mk(1, -2000), mk(2, 0)},
			busy: 6500,
			want: []float64{0, 2000, 3000, 4000, 5000, 6000},
		},
	}
	for _, tc := range cases {
		got, err := candidateOffsets(context.Background(), tc.in, tc.busy)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: got %v, want %v", tc.name, got, tc.want)
			}
		}
		// The flat engine's heap merge must enumerate the identical set.
		sc := &scratch{}
		for _, it := range tc.in {
			sc.inter = append(sc.inter, flatInterferer{aUs: it.aUs, bagUs: it.vl.BAGUs()})
		}
		if err := sc.mergeCandidates(context.Background(), tc.busy); err != nil {
			t.Fatalf("%s: merge: %v", tc.name, err)
		}
		if len(sc.cands) != len(tc.want) {
			t.Fatalf("%s: merge got %v, want %v", tc.name, sc.cands, tc.want)
		}
		for i := range sc.cands {
			if sc.cands[i] != tc.want[i] {
				t.Fatalf("%s: merge got %v, want %v", tc.name, sc.cands, tc.want)
			}
		}
	}
}

// TestMergeCandidatesMatchesSort is the property test backing the heap
// merge: on randomized interferer sets, the merged stream must equal
// the reference's append-then-sort-then-dedup enumeration bit for bit
// (same multiset in sorted order implies the same dedup survivors).
func TestMergeCandidatesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vls := map[int]*afdx.VirtualLink{}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		inter := make([]interferer, 0, n)
		flat := make([]flatInterferer, 0, n)
		for i := 0; i < n; i++ {
			bagMs := 1 << rng.Intn(4) // 1, 2, 4, 8 ms
			vl := vls[bagMs]
			if vl == nil {
				vl = &afdx.VirtualLink{ID: "vb", BAGMs: float64(bagMs), SMaxBytes: 100, SMinBytes: 100}
				vls[bagMs] = vl
			}
			T := vl.BAGUs()
			aUs := (rng.Float64()*6 - 3) * T // in [-3T, 3T)
			if rng.Intn(4) == 0 {
				aUs = float64(rng.Intn(7)-3) * T // exact multiples, both signs
			}
			inter = append(inter, interferer{vl: vl, aUs: aUs})
			flat = append(flat, flatInterferer{aUs: aUs, bagUs: T})
		}
		busy := rng.Float64() * 20000
		want, err := candidateOffsets(context.Background(), inter, busy)
		if err != nil {
			t.Fatal(err)
		}
		sc := &scratch{inter: flat}
		if err := sc.mergeCandidates(context.Background(), busy); err != nil {
			t.Fatal(err)
		}
		if len(sc.cands) != len(want) {
			t.Fatalf("trial %d: merge %v vs sort %v", trial, sc.cands, want)
		}
		for i := range want {
			if sc.cands[i] != want[i] {
				t.Fatalf("trial %d: merge %v vs sort %v", trial, sc.cands, want)
			}
		}
	}
}
