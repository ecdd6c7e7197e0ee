package minplus

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomConcave builds a random concave arrival-like curve as the minimum
// of 1-3 leaky buckets with bounded parameters.
func randomConcave(r *rand.Rand) Curve {
	n := 1 + r.Intn(3)
	c := LeakyBucket(1+r.Float64()*5000, 0.01+r.Float64()*50)
	for i := 1; i < n; i++ {
		c = Min(c, LeakyBucket(1+r.Float64()*5000, 0.01+r.Float64()*50))
	}
	return c
}

// randomConvex builds a random convex service-like curve as a rate-latency
// curve, optionally convolved with another: beta_{R1,T1} ⊗ beta_{R2,T2}
// is beta_{min(R1,R2),T1+T2}.
func randomConvex(r *rand.Rand) Curve {
	rate, lat := 60+r.Float64()*100, r.Float64()*30
	if r.Intn(2) == 0 {
		rate2, lat2 := 60+r.Float64()*100, r.Float64()*30
		rate, lat = math.Min(rate, rate2), lat+lat2
	}
	return RateLatency(rate, lat)
}

func quickConfig(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

func TestQuickCurvesAreMonotone(t *testing.T) {
	f := func(seed int64, t1, t2 float64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomConcave(r)
		a, b := math.Abs(t1), math.Abs(t2)
		if a > b {
			a, b = b, a
		}
		return c.Eval(a) <= c.Eval(b)+1e-6
	}
	if err := quick.Check(f, quickConfig(1)); err != nil {
		t.Error(err)
	}
}

func TestQuickAddCommutes(t *testing.T) {
	f := func(seed int64, x float64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomConcave(r), randomConcave(r)
		x = math.Abs(math.Mod(x, 1e4))
		return almostEq(Add(a, b).Eval(x), Add(b, a).Eval(x))
	}
	if err := quick.Check(f, quickConfig(2)); err != nil {
		t.Error(err)
	}
}

func TestQuickMinIsLowerBound(t *testing.T) {
	f := func(seed int64, x float64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomConcave(r), randomConcave(r)
		x = math.Abs(math.Mod(x, 1e4))
		m := Min(a, b).Eval(x)
		lo := math.Min(a.Eval(x), b.Eval(x))
		return almostEq(m, lo)
	}
	if err := quick.Check(f, quickConfig(3)); err != nil {
		t.Error(err)
	}
}

func TestQuickHorizontalDeviationIsDelayBound(t *testing.T) {
	// alpha(t) <= beta(t + h) for every t: h horizontally dominates.
	f := func(seed int64, x float64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := randomConcave(r)
		beta := randomConvex(r)
		if alpha.LongTermRate() > beta.LongTermRate() {
			return true
		}
		h := HorizontalDeviation(alpha, beta)
		if math.IsInf(h, 1) {
			return false // stable case must be finite
		}
		x = math.Abs(math.Mod(x, 1e4))
		return alpha.Eval(x) <= beta.Eval(x+h)+1e-5
	}
	if err := quick.Check(f, quickConfig(7)); err != nil {
		t.Error(err)
	}
}

func TestQuickVerticalDeviationIsBacklogBound(t *testing.T) {
	f := func(seed int64, x float64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := randomConcave(r)
		beta := randomConvex(r)
		if alpha.LongTermRate() > beta.LongTermRate() {
			return true
		}
		v := VerticalDeviation(alpha, beta)
		x = math.Abs(math.Mod(x, 1e4))
		return alpha.Eval(x)-beta.Eval(x) <= v+1e-6
	}
	if err := quick.Check(f, quickConfig(8)); err != nil {
		t.Error(err)
	}
}

func TestQuickMinPreservesConcavity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		return Min(randomConcave(r), randomConcave(r)).IsConcave()
	}
	if err := quick.Check(f, quickConfig(9)); err != nil {
		t.Error(err)
	}
}

func TestQuickSumPreservesConcavity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		return Add(randomConcave(r), randomConcave(r)).IsConcave()
	}
	if err := quick.Check(f, quickConfig(10)); err != nil {
		t.Error(err)
	}
}
