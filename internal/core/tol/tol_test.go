package tol

import (
	"math"
	"math/rand"
	"testing"
)

// TestAtMatchesMaxForm pins At to its defining formula,
// EpsRel*max(1, |x|), bit for bit over the edge values and a seeded
// sweep of random bit patterns (which reach subnormals, infinities and
// NaNs as well as ordinary values). A NaN result only has to be NaN.
// Gt must be the exact complement of Leq on the same pairs.
func TestAtMatchesMaxForm(t *testing.T) {
	one := 1.0
	xs := []float64{
		0, math.Copysign(0, -1),
		1, -1,
		math.Nextafter(one, 2), math.Nextafter(one, 0),
		-math.Nextafter(one, 2), -math.Nextafter(one, 0),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1),
		math.NaN(),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	for i, x := range xs {
		got, want := At(x), EpsRel*math.Max(1, math.Abs(x))
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("At(%v) = %v, want NaN", x, got)
			}
		} else if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("At(%v) = %v (%#x), want %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		y := xs[(i*7+3)%len(xs)]
		for _, p := range [][2]float64{{x, y}, {y, x}, {x, x}} {
			if Gt(p[0], p[1]) == Leq(p[0], p[1]) {
				t.Fatalf("Gt(%v, %v) = %v is not the complement of Leq", p[0], p[1], Gt(p[0], p[1]))
			}
		}
	}
}
