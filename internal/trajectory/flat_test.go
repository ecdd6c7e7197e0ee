package trajectory

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"afdx/internal/core/tol"
)

// engineVariants are the option sets the explanation, shared-prefix and
// full-size digest tests sweep.
var engineVariants = []struct {
	name string
	opts Options
}{
	{"grouped", Options{Grouping: true}},
	{"ungrouped", Options{}},
	{"shared", Options{Grouping: true, SharedTransition: true}},
}

// TestCandidateOffsetsExactMultiples pins the merged step-point set
// when the alignment A_ij is an exact multiple of the BAG, both signs.
// A start index that negated the A_ij/T ratio would skip the first
// valid step points of every interferer with A_ij <= -T; the
// positive-multiple case pins that t = 0 (the k = A_ij/T step) stays
// excluded while the window endpoint steps stay in.
func TestCandidateOffsetsExactMultiples(t *testing.T) {
	mk := func(bagMs float64, aUs float64) flatInterferer {
		return flatInterferer{aUs: aUs, bagUs: bagMs * 1000}
	}
	cases := []struct {
		name string
		in   []flatInterferer
		busy float64
		want []float64
	}{
		// A_ij = +2T: steps t = k*1000 - 2000 need k > 2; the k = 2
		// step collapses onto t = 0 (already seeded) and is filtered.
		{"positive-multiple", []flatInterferer{mk(1, 2000)}, 5500, []float64{0, 1000, 2000, 3000, 4000, 5000}},
		// A_ij = -2T: every k >= 1 step is positive, t = 3000 included.
		{"negative-multiple", []flatInterferer{mk(1, -2000)}, 5500, []float64{0, 3000, 4000, 5000}},
		{"zero-alignment", []flatInterferer{mk(1, 0)}, 3500, []float64{0, 1000, 2000, 3000}},
		// Two interferers, steps interleaved and overlapping: the shared
		// points dedup, the merged set stays sorted.
		{"merged-pair", []flatInterferer{mk(1, -2000), mk(2, 0)}, 6500, []float64{0, 2000, 3000, 4000, 5000, 6000}},
	}
	for _, tc := range cases {
		sc := &scratch{inter: tc.in}
		if err := sc.mergeCandidates(context.Background(), tc.busy); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(sc.cands, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, sc.cands, tc.want)
		}
	}
}

// TestMergeCandidatesMatchesSort is the property test backing the heap
// merge: on randomized interferer sets, the merged stream must equal,
// bit for bit, the plain enumeration — every step point k*T - A_ij for
// k = 1, 2, ... that lies in (0, busy] up to tolerance, plus t = 0,
// appended, sorted and deduplicated.
func TestMergeCandidatesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		inter := make([]flatInterferer, 0, n)
		for i := 0; i < n; i++ {
			T := float64(int(1000) << rng.Intn(4)) // 1, 2, 4, 8 ms
			aUs := (rng.Float64()*6 - 3) * T       // in [-3T, 3T)
			if rng.Intn(4) == 0 {
				aUs = float64(rng.Intn(7)-3) * T // exact multiples, both signs
			}
			inter = append(inter, flatInterferer{aUs: aUs, bagUs: T})
		}
		busy := rng.Float64() * 20000
		all := []float64{0}
		for _, it := range inter {
			for k := 1.0; !tol.Gt(k*it.bagUs-it.aUs, busy); k++ {
				if t := k*it.bagUs - it.aUs; t > tol.At(t) {
					all = append(all, t)
				}
			}
		}
		slices.Sort(all)
		want := all[:1]
		for _, t := range all[1:] {
			if tol.Gt(t, want[len(want)-1]) {
				want = append(want, t)
			}
		}
		sc := &scratch{inter: inter}
		if err := sc.mergeCandidates(context.Background(), busy); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sc.cands, want) {
			t.Fatalf("trial %d: merge %v vs sort %v", trial, sc.cands, want)
		}
	}
}
