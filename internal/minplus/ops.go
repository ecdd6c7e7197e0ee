package minplus

import (
	"fmt"
	"math"
	"sort"
)

// Add returns the pointwise sum of two curves.
func Add(a, b Curve) Curve {
	xs := mergeXs(a.breakpointXs(), b.breakpointXs())
	segs := make([]Segment, 0, len(xs))
	for _, x := range xs {
		segs = append(segs, Segment{
			X:     x,
			Y:     a.Eval(x) + b.Eval(x),
			Slope: a.slopeAt(x) + b.slopeAt(x),
		})
	}
	c := Curve{segs: segs}
	c.normalize()
	return c
}

// Sum returns the pointwise sum of any number of curves.
// Sum of zero curves is the zero curve.
func Sum(curves ...Curve) Curve {
	acc := Zero()
	for _, c := range curves {
		acc = Add(acc, c)
	}
	return acc
}

// Min returns the pointwise minimum of two curves. The result of taking
// the minimum of two non-decreasing curves is non-decreasing.
func Min(a, b Curve) Curve {
	xs := mergeXs(a.breakpointXs(), b.breakpointXs())
	// Within each interval both inputs are linear; they cross at most once.
	// Collect interval starts plus interior crossing points.
	var cuts []float64
	for i, x := range xs {
		cuts = append(cuts, x)
		end := math.Inf(1)
		if i+1 < len(xs) {
			end = xs[i+1]
		}
		da := a.Eval(x) - b.Eval(x)
		ds := a.slopeAt(x) - b.slopeAt(x)
		if math.Abs(ds) <= Eps || math.Abs(da) <= Eps {
			continue
		}
		cross := x - da/ds
		if cross > x+Eps && cross < end-Eps {
			cuts = append(cuts, cross)
		}
	}
	sort.Float64s(cuts)
	segs := make([]Segment, 0, len(cuts))
	for _, x := range cuts {
		va, vb := a.Eval(x), b.Eval(x)
		if va <= vb {
			segs = append(segs, Segment{X: x, Y: va, Slope: a.slopeAt(x)})
		} else {
			segs = append(segs, Segment{X: x, Y: vb, Slope: b.slopeAt(x)})
		}
	}
	// At a crossing point the winning slope must be the smaller of the two
	// to stay below both curves until the next cut; fix up ties.
	for i := range segs {
		x := segs[i].X
		if math.Abs(a.Eval(x)-b.Eval(x)) <= Eps {
			segs[i].Slope = math.Min(a.slopeAt(x), b.slopeAt(x))
			// Keep the slope valid only until either input bends; the next
			// cut point re-samples, so this is safe within the interval.
		}
	}
	c := Curve{segs: dedupeSegs(segs)}
	c.normalize()
	return c
}

// MinOf returns the pointwise minimum of any number of curves.
// It panics when called with no curves.
func MinOf(curves ...Curve) Curve {
	if len(curves) == 0 {
		panic("minplus: MinOf of no curves")
	}
	acc := curves[0]
	for _, c := range curves[1:] {
		acc = Min(acc, c)
	}
	return acc
}

// ConvolveConcave computes the (min,+) convolution of two concave curves
// (each a concave function plus an initial jump at t=0, e.g. leaky buckets
// or minima of leaky buckets). For such curves
//
//	(f ⊗ g)(t) = f(0) + g(0) + min(f̂, ĝ)(t)
//
// where f̂, ĝ are the inputs with their initial jumps removed. An error is
// returned when an input is not concave.
func ConvolveConcave(f, g Curve) (Curve, error) {
	if !f.IsConcave() || !g.IsConcave() {
		return Curve{}, fmt.Errorf("minplus: ConvolveConcave requires concave inputs")
	}
	fh := shiftDown(f, f.ValueAtZero())
	gh := shiftDown(g, g.ValueAtZero())
	m := Min(fh, gh)
	return shiftUp(m, f.ValueAtZero()+g.ValueAtZero()), nil
}

// ConvolveConvex computes the (min,+) convolution of two convex curves
// through the origin (e.g. rate-latency service curves). The result is the
// concatenation of the linear pieces of both inputs sorted by increasing
// slope; for beta_{R1,T1} ⊗ beta_{R2,T2} this yields beta_{min(R1,R2),T1+T2}.
func ConvolveConvex(f, g Curve) (Curve, error) {
	if !f.IsConvex() || !g.IsConvex() {
		return Curve{}, fmt.Errorf("minplus: ConvolveConvex requires convex inputs through the origin")
	}
	type piece struct {
		len   float64 // horizontal length; +Inf for the final piece
		slope float64
	}
	collect := func(c Curve) []piece {
		var ps []piece
		for i, s := range c.segs {
			l := math.Inf(1)
			if i+1 < len(c.segs) {
				l = c.segs[i+1].X - s.X
			}
			ps = append(ps, piece{len: l, slope: s.Slope})
		}
		return ps
	}
	ps := append(collect(f), collect(g)...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].slope < ps[j].slope })
	segs := []Segment{}
	x, y := 0.0, 0.0
	for _, p := range ps {
		segs = append(segs, Segment{X: x, Y: y, Slope: p.slope})
		if math.IsInf(p.len, 1) {
			break // pieces with larger slope are never reached
		}
		y += p.slope * p.len
		x += p.len
	}
	c := Curve{segs: dedupeSegs(segs)}
	c.normalize()
	return c, nil
}

// Deconvolve computes the (min,+) deconvolution (f ⊘ g)(t) = sup_{u>=0}
// f(t+u) - g(u) for a concave arrival curve f and a convex service curve g
// with long-term rate strictly greater than f's (otherwise the result is
// unbounded and an error is returned). The result is the tightest arrival
// envelope of the output of a g-server fed with f-constrained traffic.
func Deconvolve(f, g Curve) (Curve, error) {
	// Pure-delay denominator: (f ⊘ delta_d)(t) = sup_u f(t+u) - delta_d(u)
	// = f(t+d) exactly — the left-shift of f. The special case must run
	// before the shape checks below: delta_d has an interior +Inf jump
	// (not convex) and long-term rate 0, both of which would wrongly
	// reject it, and the closed form is exact for arbitrary f.
	if d, ok := g.delayOf(); ok {
		return deconvDelay(f, d), nil
	}
	if !f.IsConcave() {
		return Curve{}, fmt.Errorf("minplus: Deconvolve requires a concave numerator")
	}
	if !g.IsConvex() {
		return Curve{}, fmt.Errorf("minplus: Deconvolve requires a convex denominator")
	}
	if f.LongTermRate() > g.LongTermRate()+Eps {
		return Curve{}, fmt.Errorf("minplus: deconvolution unbounded: arrival rate %g exceeds service rate %g",
			f.LongTermRate(), g.LongTermRate())
	}
	// f(t+u)-g(u) is concave in u for fixed t, so the supremum is attained
	// at u=0, at a breakpoint of g, or at u such that t+u is a breakpoint
	// of f. The resulting curve is concave in t with breakpoints among
	// {xf - xg : xf breakpoint of f, xg breakpoint of g} (>= 0).
	var ts []float64
	for _, xf := range f.breakpointXs() {
		for _, xg := range g.breakpointXs() {
			if d := xf - xg; d >= 0 {
				ts = append(ts, d)
			}
		}
	}
	ts = append(ts, 0)
	sort.Float64s(ts)
	ts = dedupeFloats(ts)

	sup := func(t float64) float64 {
		best := math.Inf(-1)
		consider := func(u float64) {
			if u < 0 {
				return
			}
			if v := f.Eval(t+u) - g.Eval(u); v > best {
				best = v
			}
		}
		consider(0)
		for _, xg := range g.breakpointXs() {
			consider(xg)
		}
		for _, xf := range f.breakpointXs() {
			consider(xf - t)
		}
		return best
	}

	segs := make([]Segment, 0, len(ts))
	for i, t := range ts {
		y := sup(t)
		var slope float64
		if i+1 < len(ts) {
			next := ts[i+1]
			slope = (sup(next) - y) / (next - t)
		} else {
			slope = f.LongTermRate()
		}
		if slope < 0 {
			slope = 0
		}
		segs = append(segs, Segment{X: t, Y: y, Slope: slope})
	}
	c := Curve{segs: dedupeSegs(segs)}
	c.normalize()
	return c, nil
}

// deconvDelay realises (f ⊘ delta_d)(t) = f(t + d): the first piece
// starts at f's value and slope at d, the pieces past d shift left.
// For a single-piece leaky bucket the origin value is literally
// f.Eval(d) = b + r*(d-0), the same float expression as the classical
// burst inflation b + r*d — the deconvolution ablation and the
// classical propagation agree bit for bit.
func deconvDelay(f Curve, d float64) Curve {
	segs := []Segment{{X: 0, Y: f.Eval(d), Slope: f.slopeAt(d)}}
	for _, s := range f.segs {
		if s.X > d+Eps {
			segs = append(segs, Segment{X: s.X - d, Y: s.Y, Slope: s.Slope})
		}
	}
	c := Curve{segs: segs}
	c.normalize()
	return c
}

// SubPos computes the positive part of a difference, (f - g)+, for a
// convex non-decreasing f through the origin and a concave g (both
// piecewise linear). The result is the convex non-decreasing "residual"
// curve used to build leftover service curves: f's slopes only grow and
// g's only shrink, so f - g crosses zero at most once and the positive
// part stays convex.
func SubPos(f, g Curve) (Curve, error) {
	if !f.IsConvex() {
		return Curve{}, fmt.Errorf("minplus: SubPos requires a convex minuend")
	}
	if !g.IsConcave() {
		return Curve{}, fmt.Errorf("minplus: SubPos requires a concave subtrahend")
	}
	xs := mergeXs(f.breakpointXs(), g.breakpointXs())
	// Locate the zero crossing: the last interval where f-g goes from
	// <=0 to >0 contains at most one root.
	type pt struct{ x, d, slope float64 }
	var pts []pt
	for _, x := range xs {
		pts = append(pts, pt{x: x, d: f.Eval(x) - g.Eval(x), slope: f.slopeAt(x) - g.slopeAt(x)})
	}
	segs := []Segment{}
	emit := func(x, y, slope float64) {
		if y < 0 {
			y = 0
		}
		if slope < 0 {
			slope = 0
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
	// The clamping can produce tiny downward kinks from float noise;
	// validate via NewCurve to be safe.
	return NewCurve(c.segs)
}

// slopeAt returns the slope of the piece containing t (right-continuous).
func (c Curve) slopeAt(t float64) float64 {
	if t < 0 {
		return 0
	}
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].X > t+Eps }) - 1
	if i < 0 {
		i = 0
	}
	return c.segs[i].Slope
}

func shiftDown(c Curve, d float64) Curve {
	segs := c.Segments()
	for i := range segs {
		segs[i].Y -= d
		if segs[i].Y < 0 {
			segs[i].Y = 0
		}
	}
	return Curve{segs: segs}
}

func shiftUp(c Curve, d float64) Curve {
	segs := c.Segments()
	for i := range segs {
		segs[i].Y += d
	}
	return Curve{segs: segs}
}

func mergeXs(a, b []float64) []float64 {
	xs := append(append([]float64{}, a...), b...)
	sort.Float64s(xs)
	return dedupeFloats(xs)
}

func dedupeFloats(xs []float64) []float64 {
	out := xs[:0]
	for _, x := range xs {
		if len(out) == 0 || x > out[len(out)-1]+Eps {
			out = append(out, x)
		}
	}
	return out
}

func dedupeSegs(segs []Segment) []Segment {
	out := segs[:0]
	for _, s := range segs {
		if len(out) == 0 || s.X > out[len(out)-1].X+Eps {
			out = append(out, s)
		}
	}
	return out
}
