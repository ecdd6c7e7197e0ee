package minplus

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddAffine(t *testing.T) {
	c := Add(Affine(10, 2), Affine(5, 3))
	if got := c.Eval(0); !almostEq(got, 15) {
		t.Errorf("Eval(0) = %g, want 15", got)
	}
	if got := c.Eval(4); !almostEq(got, 35) {
		t.Errorf("Eval(4) = %g, want 35", got)
	}
	if c.NumSegments() != 1 {
		t.Errorf("sum of affine curves should be affine, got %v", c)
	}
}

func TestAddWithBreakpoints(t *testing.T) {
	a := RateLatency(10, 2)
	b := RateLatency(5, 4)
	c := Add(a, b)
	for _, x := range []float64{0, 1, 2, 3, 4, 5, 10} {
		want := a.Eval(x) + b.Eval(x)
		if got := c.Eval(x); !almostEq(got, want) {
			t.Errorf("Add.Eval(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestMinBasic(t *testing.T) {
	// The grouping curve of the paper: min(sum of leaky buckets, link shaping).
	sum := Add(Affine(4000, 1), Affine(4000, 1))
	shape := Affine(4000, 100)
	g := Min(sum, shape)
	for _, x := range []float64{0, 1, 10, 40, 41, 100, 1e4} {
		want := math.Min(sum.Eval(x), shape.Eval(x))
		if got := g.Eval(x); !almostEq(got, want) {
			t.Errorf("Min.Eval(%g) = %g, want %g", x, got, want)
		}
	}
	if !g.IsConcave() {
		t.Errorf("grouped envelope should be concave: %v", g)
	}
}

func TestMinFindsInteriorCrossing(t *testing.T) {
	a := Affine(0, 3)  // 3t
	b := Affine(10, 1) // 10 + t
	c := Min(a, b)     // crosses at t=5
	if got := c.Eval(4); !almostEq(got, 12) {
		t.Errorf("Eval(4) = %g, want 12 (3t side)", got)
	}
	if got := c.Eval(6); !almostEq(got, 16) {
		t.Errorf("Eval(6) = %g, want 16 (10+t side)", got)
	}
	if got := c.Eval(5); !almostEq(got, 15) {
		t.Errorf("Eval(5) = %g, want 15 (crossing)", got)
	}
}

func TestSubPosResidualService(t *testing.T) {
	// Residual of a rate-latency server after a leaky bucket:
	// (100(t-16) - (4000 + t))+ : zero until the root, then slope 99.
	beta := RateLatency(100, 16)
	alpha := LeakyBucket(4000, 1)
	res, err := SubPos(beta, alpha)
	if err != nil {
		t.Fatal(err)
	}
	// Root: 100(t-16) = 4000 + t -> t = 5600/99.
	root := 5600.0 / 99
	if got := res.Eval(root - 1); got != 0 {
		t.Errorf("residual before the root = %g, want 0", got)
	}
	want := 99 * 10.0
	if got := res.Eval(root + 10); !almostEq(got, want) {
		t.Errorf("residual after the root = %g, want %g", got, want)
	}
	if !res.IsConvex() {
		t.Errorf("residual should be convex: %v", res)
	}
}

func TestSubPosZeroSubtrahend(t *testing.T) {
	beta := RateLatency(100, 16)
	res, err := SubPos(beta, Zero())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 16, 20, 100} {
		if !almostEq(res.Eval(x), beta.Eval(x)) {
			t.Errorf("SubPos(beta, 0).Eval(%g) = %g, want %g", x, res.Eval(x), beta.Eval(x))
		}
	}
}

func TestSubPosRejectsWrongShapes(t *testing.T) {
	if _, err := SubPos(LeakyBucket(1, 1), LeakyBucket(1, 1)); err == nil {
		t.Error("concave minuend should be rejected")
	}
	if _, err := SubPos(RateLatency(10, 1), RateLatency(10, 1)); err == nil {
		t.Error("convex subtrahend should be rejected")
	}
}

func TestQuickSubPosIsResidual(t *testing.T) {
	f := func(seed int64, x float64) bool {
		r := rand.New(rand.NewSource(seed))
		beta := randomConvex(r)
		alpha := randomConcave(r)
		res, err := SubPos(beta, alpha)
		if err != nil {
			return false
		}
		x = math.Abs(math.Mod(x, 1e4))
		want := beta.Eval(x) - alpha.Eval(x)
		if want < 0 {
			want = 0
		}
		return math.Abs(res.Eval(x)-want) <= 1e-5*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// TestMergeXsMatchesSortedUnion pins mergeXs to the sort it replaced:
// both curves' abscissae concatenated, sorted, and each one within Eps
// of the one kept before it dropped. Breakpoints sit on a coarse grid,
// some moved by less than Eps, so the two curves tie and nearly tie.
func TestMergeXsMatchesSortedUnion(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	curve := func() Curve {
		segs := []Segment{{X: 0, Y: 0, Slope: 1}}
		x := 0.0
		for n := r.Intn(8); n > 0; n-- {
			x += float64(1 + r.Intn(3))
			at := x
			if r.Intn(3) == 0 {
				at += Eps * r.Float64()
			}
			segs = append(segs, Segment{X: at, Y: at, Slope: float64(len(segs) + 1)})
		}
		return Curve{segs: segs}
	}
	for i := 0; i < 2000; i++ {
		a, b := curve(), curve()
		want := append(a.breakpointXs(), b.breakpointXs()...)
		sort.Float64s(want)
		want = dedupeFloats(want)
		if got := mergeXs(a, b); !slices.Equal(got, want) {
			t.Fatalf("mergeXs(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}
