// Package minplus implements the fragment of (min,+) algebra on
// piecewise-linear curves that the Network Calculus engine uses:
// arrival curves (concave, e.g. leaky buckets and staircases), service
// curves (convex, e.g. rate-latency), pointwise addition and minimum,
// the positive-part residual SubPos, and the horizontal/vertical
// deviations that yield delay and backlog bounds.
//
// Curves are non-negative, non-decreasing, right-continuous piecewise-linear
// functions on [0, +inf). Time is expressed in microseconds and values in
// bits throughout this repository, but the package itself is unit-agnostic.
package minplus

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Eps is the absolute tolerance used for geometric comparisons between
// curve coordinates. Values within Eps are considered equal.
const Eps = 1e-9

// joinEps is the looser absolute tolerance for vertical continuity at
// segment joins: Y values carry rounding accumulated across operator
// chains, so equality of left limit and segment start is asserted at
// 1e-6 rather than Eps. Deliberately a named constant, not a literal at
// the comparison sites (DET004).
const joinEps = 1e-6

// Segment is one linear piece of a Curve. The piece covers [X, nextX)
// (or [X, +inf) for the last piece) and evaluates to Y + Slope*(t-X).
// A jump discontinuity at X is expressed by Y exceeding the left limit
// of the previous piece; curves remain right-continuous.
type Segment struct {
	X     float64 // start abscissa of the piece
	Y     float64 // value at X (right limit)
	Slope float64 // non-negative slope on the piece
}

// Curve is a non-decreasing, right-continuous piecewise-linear function
// on [0, +inf). The zero value is not usable; construct curves with
// NewCurve, LeakyBucket, RateLatency, Affine, Zero, or Plateau.
type Curve struct {
	segs []Segment
}

// NewCurve builds a curve from segments. The segments must start at X=0,
// have strictly increasing X, non-negative slopes, and must not decrease
// across piece boundaries (upward jumps are allowed).
func NewCurve(segs []Segment) (Curve, error) {
	if len(segs) == 0 {
		return Curve{}, fmt.Errorf("minplus: curve needs at least one segment")
	}
	if math.Abs(segs[0].X) > Eps {
		return Curve{}, fmt.Errorf("minplus: first segment must start at X=0, got %g", segs[0].X)
	}
	cp := make([]Segment, len(segs))
	copy(cp, segs)
	cp[0].X = 0
	for i, s := range cp {
		if s.Slope < -Eps {
			return Curve{}, fmt.Errorf("minplus: segment %d has negative slope %g", i, s.Slope)
		}
		if s.Y < -Eps {
			return Curve{}, fmt.Errorf("minplus: segment %d has negative value %g", i, s.Y)
		}
		if i > 0 {
			prev := cp[i-1]
			if s.X <= prev.X+Eps {
				return Curve{}, fmt.Errorf("minplus: segment %d abscissa %g does not increase past %g", i, s.X, prev.X)
			}
			leftLimit := prev.Y + prev.Slope*(s.X-prev.X)
			if s.Y < leftLimit-joinEps {
				return Curve{}, fmt.Errorf("minplus: curve decreases at X=%g (%g -> %g)", s.X, leftLimit, s.Y)
			}
		}
	}
	c := Curve{segs: cp}
	c.normalize()
	return c, nil
}

// MustCurve is NewCurve that panics on invalid input. Intended for
// package-internal construction of curves already known to be valid.
func MustCurve(segs []Segment) Curve {
	c, err := NewCurve(segs)
	if err != nil {
		panic(err)
	}
	return c
}

// Zero returns the curve that is identically zero.
func Zero() Curve {
	return Curve{segs: []Segment{{X: 0, Y: 0, Slope: 0}}}
}

// Affine returns the curve t -> b + r*t (value b at t=0).
// With b as a burst and r as a sustained rate this is the gamma_{r,b}
// "leaky bucket" arrival curve of Network Calculus, except that the
// conventional jump at t=0 is realised as a right-continuous value b.
func Affine(b, r float64) Curve {
	return Curve{segs: []Segment{{X: 0, Y: b, Slope: r}}}
}

// LeakyBucket is an alias for Affine that reads better at call sites
// dealing with arrival envelopes: burst b, long-term rate r.
func LeakyBucket(b, r float64) Curve { return Affine(b, r) }

// RateLatency returns the service curve beta_{R,T}: t -> R * max(0, t-T).
func RateLatency(rate, latency float64) Curve {
	if latency <= Eps {
		return Curve{segs: []Segment{{X: 0, Y: 0, Slope: rate}}}
	}
	return Curve{segs: []Segment{
		{X: 0, Y: 0, Slope: 0},
		{X: latency, Y: 0, Slope: rate},
	}}
}

// Plateau returns the curve that is v everywhere (constant).
func Plateau(v float64) Curve {
	return Curve{segs: []Segment{{X: 0, Y: v, Slope: 0}}}
}

// normalize merges consecutive collinear segments in place.
func (c *Curve) normalize() {
	if len(c.segs) <= 1 {
		return
	}
	out := c.segs[:1]
	for _, s := range c.segs[1:] {
		last := &out[len(out)-1]
		joinY := last.Y + last.Slope*(s.X-last.X)
		if math.Abs(joinY-s.Y) <= joinEps && math.Abs(last.Slope-s.Slope) <= Eps {
			continue // collinear continuation: drop the breakpoint
		}
		out = append(out, s)
	}
	c.segs = out
}

// NumSegments returns the number of linear pieces.
func (c Curve) NumSegments() int { return len(c.segs) }

// Eval returns the curve value at t (right-continuous). Negative t
// evaluates to 0 by the Network Calculus convention f(t)=0 for t<0.
func (c Curve) Eval(t float64) float64 {
	if t < 0 {
		return 0
	}
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].X > t }) - 1
	if i < 0 {
		i = 0
	}
	s := c.segs[i]
	return s.Y + s.Slope*(t-s.X)
}

// LastSegment returns the final (unbounded) piece of the curve.
func (c Curve) LastSegment() Segment { return c.segs[len(c.segs)-1] }

// LongTermRate returns the asymptotic slope of the curve.
func (c Curve) LongTermRate() float64 { return c.segs[len(c.segs)-1].Slope }

// ValueAtZero returns f(0) (the right limit at the origin; for a leaky
// bucket this is the burst).
func (c Curve) ValueAtZero() float64 { return c.segs[0].Y }

// IsConcave reports whether the curve is concave on (0, +inf), i.e.
// slopes are non-increasing and the only discontinuity is the initial
// jump at t=0. Leaky buckets and their minima are concave.
func (c Curve) IsConcave() bool {
	for i := 1; i < len(c.segs); i++ {
		prev, s := c.segs[i-1], c.segs[i]
		if s.Slope > prev.Slope+Eps {
			return false
		}
		leftLimit := prev.Y + prev.Slope*(s.X-prev.X)
		if s.Y > leftLimit+joinEps { // interior jump
			return false
		}
	}
	return true
}

// IsConvex reports whether the curve is convex with f(0)=0 and no jumps:
// slopes non-decreasing and pieces continuous. Rate-latency curves and
// their convolutions are convex.
func (c Curve) IsConvex() bool {
	if c.segs[0].Y > Eps {
		return false
	}
	for i := 1; i < len(c.segs); i++ {
		prev, s := c.segs[i-1], c.segs[i]
		if s.Slope < prev.Slope-Eps {
			return false
		}
		leftLimit := prev.Y + prev.Slope*(s.X-prev.X)
		if math.Abs(s.Y-leftLimit) > joinEps {
			return false
		}
	}
	return true
}

// breakpointYs returns the candidate ordinates where the pseudo-inverse of
// the curve changes slope: for every piece boundary both the left limit and
// the right value (they differ at jumps).
func (c Curve) breakpointYs() []float64 {
	ys := make([]float64, 0, 2*len(c.segs))
	for i, s := range c.segs {
		if i > 0 {
			prev := c.segs[i-1]
			ys = append(ys, prev.Y+prev.Slope*(s.X-prev.X))
		}
		ys = append(ys, s.Y)
	}
	return ys
}

// InverseInf returns the pseudo-inverse inf{ t >= 0 : f(t) >= y }.
// It returns +Inf when the curve never reaches y.
func (c Curve) InverseInf(y float64) float64 {
	if y <= c.segs[0].Y+Eps {
		return 0
	}
	for i, s := range c.segs {
		var end float64
		if i+1 < len(c.segs) {
			end = s.Y + s.Slope*(c.segs[i+1].X-s.X)
		} else {
			// y at or below the last piece's start (a jump into it)
			// is first reached at the jump itself.
			if y <= s.Y+Eps {
				return s.X
			}
			if s.Slope <= Eps {
				return math.Inf(1)
			}
			return s.X + (y-s.Y)/s.Slope
		}
		if y <= s.Y+Eps {
			return s.X
		}
		if y <= end+Eps {
			if s.Slope <= Eps {
				return c.segs[i+1].X
			}
			t := s.X + (y-s.Y)/s.Slope
			next := c.segs[i+1].X
			if t > next {
				t = next
			}
			return t
		}
	}
	return math.Inf(1) // unreachable
}

// inverseSup returns the upper pseudo-inverse sup{ t >= 0 : f(t) <= y },
// the right limit of InverseInf at y. The two differ only where f has a
// flat piece at height y: inverseSup returns its end (+Inf for a flat
// last piece).
func (c Curve) inverseSup(y float64) float64 {
	t := c.InverseInf(y)
	for i, s := range c.segs {
		if s.Slope <= Eps && math.Abs(s.Y-y) <= Eps {
			if i+1 == len(c.segs) {
				return math.Inf(1)
			}
			t = math.Max(t, c.segs[i+1].X)
		}
	}
	return t
}

// String renders the curve as a compact list of pieces, for debugging
// and test failure messages.
func (c Curve) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, s := range c.segs {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "[%g: %g +%g·t]", s.X, s.Y, s.Slope)
	}
	b.WriteString("}")
	return b.String()
}
