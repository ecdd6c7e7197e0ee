package minplus

import (
	"fmt"
	"math"
	"sort"
)

// Add returns the pointwise sum of two curves.
func Add(a, b Curve) Curve {
	xs := mergeXs(a, b)
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

// Min returns the pointwise minimum of two curves. The result of taking
// the minimum of two non-decreasing curves is non-decreasing.
func Min(a, b Curve) Curve {
	xs := mergeXs(a, b)
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
	xs := mergeXs(f, g)
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

// mergeXs returns the breakpoint abscissae of both curves in
// increasing order, each one within Eps of the one kept before it
// dropped. Each curve's abscissae strictly increase, so one merge pass
// gives the order a sort of the two lists would; on a tie a's value
// comes first, as in a stable sort.
func mergeXs(a, b Curve) []float64 {
	xs := make([]float64, 0, len(a.segs)+len(b.segs))
	i, j := 0, 0
	for i < len(a.segs) || j < len(b.segs) {
		var x float64
		if j == len(b.segs) || i < len(a.segs) && a.segs[i].X <= b.segs[j].X {
			x = a.segs[i].X
			i++
		} else {
			x = b.segs[j].X
			j++
		}
		if len(xs) == 0 || x > xs[len(xs)-1]+Eps {
			xs = append(xs, x)
		}
	}
	return xs
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
