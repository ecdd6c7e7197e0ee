package minplus

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"afdx/internal/core/tol"
)

// FIFOResidual returns the FIFO residual service curve
//
//	beta_theta(t) = [beta(t) - alpha(t - theta)]+ · 1{t > theta}
//
// left for one flow of a FIFO aggregate served by beta when the
// competing traffic is alpha-constrained (Le Boudec & Thiran,
// Thm 6.2.2; Bouillard's FIFO analyses minimise over theta). Every
// theta >= 0 yields a valid service curve for the flow.
//
// The difference beta(t) - alpha(t-theta) is convex on [theta, +inf)
// (beta's slopes only grow, alpha's only shrink), so it can dip before
// it rises; the dip's positive part would not be non-decreasing. The
// result is therefore the largest non-decreasing minorant of the
// positive part — still a valid (smaller) service curve, and a proper
// Curve. A possible upward jump at theta (when beta(theta) already
// exceeds the residual minimum) is legal for Curve.
//
// It lives in a test file because nothing in the engine needs it: the
// per-flow bound it yields, minimised over theta, is the aggregate
// bound h(alpha_i+alpha_c, beta) the engine already computes (DESIGN.md
// §14.1). The tests below keep it as the comparator for that claim.
func FIFOResidual(beta, alpha Curve, theta float64) (Curve, error) {
	if !beta.IsConvex() {
		return Curve{}, fmt.Errorf("minplus: FIFOResidual requires a convex service curve")
	}
	if !alpha.IsConcave() {
		return Curve{}, fmt.Errorf("minplus: FIFOResidual requires a concave cross-traffic envelope")
	}
	if theta < 0 {
		return Curve{}, fmt.Errorf("minplus: FIFOResidual requires theta >= 0, got %g", theta)
	}
	if beta.LongTermRate() < alpha.LongTermRate()-Eps {
		return Curve{}, fmt.Errorf("minplus: FIFO residual unbounded: cross rate %g exceeds service rate %g",
			alpha.LongTermRate(), beta.LongTermRate())
	}
	// Sample points: theta itself, beta's breakpoints past theta, and
	// alpha's breakpoints shifted right by theta. The difference is
	// linear between consecutive samples.
	xs := []float64{theta}
	for _, x := range beta.breakpointXs() {
		if x > theta+Eps {
			xs = append(xs, x)
		}
	}
	for _, x := range alpha.breakpointXs() {
		if x > Eps {
			xs = append(xs, x+theta)
		}
	}
	sort.Float64s(xs)
	xs = dedupeFloats(xs)
	type pt struct{ x, d, slope float64 }
	pts := make([]pt, 0, len(xs))
	for _, x := range xs {
		pts = append(pts, pt{
			x:     x,
			d:     beta.Eval(x) - alpha.Eval(x-theta),
			slope: beta.slopeAt(x) - alpha.slopeAt(x-theta),
		})
	}
	// The convex difference attains its minimum at the first sample with
	// a non-negative outgoing slope; flatten the decreasing prefix to
	// that minimum (the non-decreasing closure from below).
	iMin := len(pts) - 1
	for i, p := range pts {
		if p.slope >= -Eps {
			iMin = i
			break
		}
	}
	m := pts[iMin].d
	for i := 0; i < iMin; i++ {
		pts[i].d = m
		pts[i].slope = 0
	}
	segs := []Segment{}
	if theta > Eps {
		segs = append(segs, Segment{X: 0, Y: 0, Slope: 0})
	}
	emit := func(x, y, slope float64) {
		if y < 0 {
			y = 0
		}
		if slope < 0 {
			slope = 0
		}
		if n := len(segs); n > 0 && x <= segs[n-1].X+Eps && segs[n-1].X > Eps {
			segs[n-1] = Segment{X: segs[n-1].X, Y: y, Slope: slope}
			return
		}
		segs = append(segs, Segment{X: x, Y: y, Slope: slope})
	}
	for i, p := range pts {
		end := math.Inf(1)
		if i+1 < len(pts) {
			end = pts[i+1].x
		}
		switch {
		case p.d <= Eps && p.slope <= Eps:
			emit(p.x, 0, 0)
		case p.d <= Eps && p.slope > Eps:
			// Root inside the interval (or at its start).
			root := p.x - p.d/p.slope
			if root <= p.x+Eps {
				emit(p.x, 0, p.slope)
			} else {
				emit(p.x, 0, 0)
				if root < end {
					emit(root, 0, p.slope)
				}
			}
		default: // p.d > 0
			emit(p.x, p.d, p.slope)
		}
	}
	c := Curve{segs: dedupeSegs(segs)}
	c.normalize()
	return c, nil
}

// breakpointXs returns the abscissae of all piece boundaries.
func (c Curve) breakpointXs() []float64 {
	xs := make([]float64, len(c.segs))
	for i, s := range c.segs {
		xs[i] = s.X
	}
	return xs
}

// randomFlowEnvelope draws the analysed flow's envelope alpha_i the way
// the engine builds one: a jitter-inflated leaky bucket, or its minimum
// with the exact jittered staircase (Options.StairSteps).
func randomFlowEnvelope(t *testing.T, r *rand.Rand) Curve {
	s := float64(8 * (64 + r.Intn(1455)))
	bag := 1000 * math.Exp2(float64(r.Intn(8)))
	jitter := r.Float64() * 3000
	lb := LeakyBucket(s+s/bag*jitter, s/bag)
	if r.Intn(2) == 0 {
		return lb
	}
	stair, err := StaircaseWithJitter(s, bag, jitter, 1+r.Intn(4))
	if err != nil {
		t.Fatal(err)
	}
	return Min(lb, stair)
}

// randomCrossEnvelope draws the concave cross traffic alpha_c: a sum of
// input groups, each a sum of leaky buckets, optionally shaped by its
// input link (the minimum with the largest frame at the link rate).
func randomCrossEnvelope(r *rand.Rand) Curve {
	cross := Zero()
	for g := 1 + r.Intn(3); g > 0; g-- {
		group, maxFrame := Zero(), 0.0
		for m := 1 + r.Intn(3); m > 0; m-- {
			s := float64(8 * (64 + r.Intn(1455)))
			rho := s / (1000 * math.Exp2(float64(r.Intn(8))))
			group = Add(group, LeakyBucket(s*(1+r.Float64()*3), rho))
			maxFrame = math.Max(maxFrame, s)
		}
		if r.Intn(2) == 0 {
			group = Min(group, LeakyBucket(maxFrame, 100))
		}
		cross = Add(cross, group)
	}
	return cross
}

// randomService draws a convex service curve with long-term rate above
// load: a port's rate-latency curve, or a lower priority level's
// two-piece residual of it after a higher level's leaky bucket (SubPos).
func randomService(r *rand.Rand, load float64) (Curve, error) {
	rate := load * (1.05 + 3*r.Float64())
	latency := r.Float64() * 50
	if r.Intn(2) == 0 {
		return RateLatency(rate, latency), nil
	}
	higher := r.Float64() * rate
	return SubPos(RateLatency(rate+higher, latency), LeakyBucket(r.Float64()*20000, higher))
}

// Why a FIFO request gets the WCNC bound (DESIGN.md §14.1), checked
// densely: for 64 theta points in [0, 2D] the per-flow bound through
// the FIFO residual service is never below the aggregate bound
// D = h(alpha_i+alpha_c, beta), and theta* = D attains it. No theta
// candidate set, however fine, can tighten the WCNC level bound.
func TestFIFOResidualDenseThetaMinimumIsAggregateBound(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		ai, ac := randomFlowEnvelope(t, r), randomCrossEnvelope(r)
		beta, err := randomService(r, ai.LongTermRate()+ac.LongTermRate())
		if err != nil {
			t.Fatalf("case %d: service curve: %v", i, err)
		}
		d := HorizontalDeviation(Add(ai, ac), beta)
		perFlow := func(theta float64) float64 {
			res, err := FIFOResidual(beta, ac, theta)
			if err != nil {
				t.Fatalf("case %d theta=%g: FIFOResidual: %v", i, theta, err)
			}
			return HorizontalDeviation(ai, res)
		}
		for k := 0; k < 64; k++ {
			theta := 2 * d * float64(k) / 63
			if got := perFlow(theta); !tol.Leq(d, got) {
				t.Fatalf("case %d theta=%g: per-flow bound %g below the aggregate bound %g (beta=%v alpha_i=%v alpha_c=%v)",
					i, theta, got, d, beta, ai, ac)
			}
		}
		if got := perFlow(d); !tol.Leq(got, d) || !tol.Leq(d, got) {
			t.Fatalf("case %d: theta*=D gives %g, want the aggregate bound %g (beta=%v alpha_i=%v alpha_c=%v)",
				i, got, d, beta, ai, ac)
		}
	}
}

func TestFIFOResidualRejectsBadShapes(t *testing.T) {
	beta := RateLatency(100, 16)
	alpha := Affine(4000, 1)
	if _, err := FIFOResidual(alpha, alpha, 0); err == nil {
		t.Errorf("concave service curve should be rejected")
	}
	if _, err := FIFOResidual(beta, beta, 0); err == nil {
		t.Errorf("convex cross envelope should be rejected")
	}
	if _, err := FIFOResidual(beta, alpha, -1); err == nil {
		t.Errorf("negative theta should be rejected")
	}
	if _, err := FIFOResidual(RateLatency(1, 0), Affine(10, 2), 0); err == nil {
		t.Errorf("cross rate above service rate should be rejected")
	}
}

// At theta = 0 and without a positive dip the FIFO residual is exactly
// the blind-multiplexing residual (beta - alpha)+.
func TestFIFOResidualZeroThetaMatchesSubPos(t *testing.T) {
	beta := RateLatency(100, 16)
	alpha := Min(Affine(4000, 1), Affine(1000, 30))
	want, err := SubPos(beta, alpha)
	if err != nil {
		t.Fatalf("SubPos: %v", err)
	}
	got, err := FIFOResidual(beta, alpha, 0)
	if err != nil {
		t.Fatalf("FIFOResidual: %v", err)
	}
	for _, x := range []float64{0, 10, 16, 56, 57, 100, 1e4} {
		if !almostEq(got.Eval(x), want.Eval(x)) {
			t.Errorf("Eval(%g) = %g, want %g", x, got.Eval(x), want.Eval(x))
		}
	}
}

func TestFIFOResidualZeroBeforeTheta(t *testing.T) {
	beta := RateLatency(100, 16)
	alpha := Affine(4000, 1)
	const theta = 120
	r, err := FIFOResidual(beta, alpha, theta)
	if err != nil {
		t.Fatalf("FIFOResidual: %v", err)
	}
	for _, x := range []float64{0, 16, 119.9} {
		if got := r.Eval(x); got != 0 {
			t.Errorf("Eval(%g) = %g, want 0 before theta", x, got)
		}
	}
	// Past theta the residual is [beta(t) - alpha(t-theta)]+ (no dip
	// here: beta's slope dominates alpha's everywhere past the latency).
	for _, x := range []float64{theta, 200, 1e4} {
		want := beta.Eval(x) - alpha.Eval(x-theta)
		if want < 0 {
			want = 0
		}
		if got := r.Eval(x); !almostEq(got, want) {
			t.Errorf("Eval(%g) = %g, want %g", x, got, want)
		}
	}
}

// When the difference dips below its value at theta before rising, the
// naive positive part is not non-decreasing; the op must return the
// non-decreasing closure (a valid, smaller service curve).
func TestFIFOResidualDipTakesClosure(t *testing.T) {
	beta := MustCurve([]Segment{{X: 0, Y: 0, Slope: 0.5}, {X: 10, Y: 5, Slope: 3}})
	alpha := Affine(2, 1)
	r, err := FIFOResidual(beta, alpha, 6)
	if err != nil {
		t.Fatalf("FIFOResidual: %v", err)
	}
	// diff(6) = 1 but diff dips to -1 at t=10; the closure is 0 until the
	// root 10.5 and then rises at slope 2.
	for _, x := range []float64{0, 6, 7, 10, 10.5} {
		if got := r.Eval(x); got != 0 {
			t.Errorf("Eval(%g) = %g, want 0 (closure of the dip)", x, got)
		}
	}
	if got := r.Eval(12); !almostEq(got, 3) {
		t.Errorf("Eval(12) = %g, want 3", got)
	}
	// Monotonicity across the board.
	prev := -1.0
	for x := 0.0; x <= 20; x += 0.25 {
		if v := r.Eval(x); v < prev-Eps {
			t.Fatalf("residual decreases at %g: %g -> %g", x, prev, v)
		} else {
			prev = v
		}
	}
}

// The soundness anchor the engine relies on: with D the aggregate delay
// bound h(alpha1+alpha2, beta), the per-flow bound through the FIFO
// residual at theta = D never exceeds D. Random leaky buckets and
// rate-latency curves, stability enforced.
func TestFIFOResidualThetaDNeverWorseThanAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		b1, b2 := 1+rng.Float64()*5000, 1+rng.Float64()*5000
		r1, r2 := 0.1+rng.Float64()*40, 0.1+rng.Float64()*40
		rate := (r1 + r2) * (1.05 + rng.Float64()*3)
		lat := rng.Float64() * 50
		beta := RateLatency(rate, lat)
		a1, a2 := Affine(b1, r1), Affine(b2, r2)
		d := HorizontalDeviation(Add(a1, a2), beta)
		res, err := FIFOResidual(beta, a2, d)
		if err != nil {
			t.Fatalf("case %d: FIFOResidual: %v", i, err)
		}
		df := HorizontalDeviation(a1, res)
		if df > d+1e-6 {
			t.Fatalf("case %d: per-flow bound %g exceeds aggregate bound %g (beta=%v a1=%v a2=%v)",
				i, df, d, beta, a1, a2)
		}
	}
}
