package minplus

import (
	"math"
	"sort"
)

// HorizontalDeviation returns h(alpha, beta) = sup_{t>=0} inf{ d >= 0 :
// alpha(t) <= beta(t+d) }, the classical Network Calculus delay bound for
// traffic with arrival curve alpha served with service curve beta (FIFO
// order within the aggregate).
//
// The deviation is +Inf when the arrival curve's long-term rate exceeds the
// service curve's (unstable server), and is reported as such; callers treat
// that case as an analysis error.
func HorizontalDeviation(alpha, beta Curve) float64 {
	ra, rb := alpha.LongTermRate(), beta.LongTermRate()
	if ra > rb+Eps {
		return math.Inf(1)
	}
	// In the "inverse domain" h = sup_y ( betaInv(y) - alphaInv(y) ) over
	// the ordinates reached by alpha; the difference of the two pseudo-
	// inverses is piecewise linear in y with breakpoints at the ordinate
	// breakpoints of either curve, so scanning those suffices. When the
	// long-term rates are equal the tail difference is constant and the
	// last candidate already covers it; when ra < rb the tail decreases.
	ys := append(alpha.breakpointYs(), beta.breakpointYs()...)
	sort.Float64s(ys)
	ys = dedupeFloats(ys)
	yMax := math.Inf(1)
	if last := alpha.LastSegment(); last.Slope <= Eps {
		yMax = last.Y // alpha is bounded; higher ordinates are never produced
	}
	h := 0.0
	for _, y := range ys {
		if y <= Eps || y > yMax+Eps {
			continue
		}
		d := beta.InverseInf(y) - alpha.InverseInf(y)
		if d > h {
			h = d
		}
	}
	// A flat piece of beta at a positive height y (a FIFO residual's
	// non-decreasing closure has them; convex curves do not) makes
	// beta's pseudo-inverse jump at y: ordinates just above y wait
	// until the piece ends. The scan above evaluates the inverses at y
	// itself, so add the right limits there.
	for i, s := range beta.segs {
		if s.Slope > Eps || s.Y <= Eps || s.Y >= yMax-Eps {
			continue
		}
		end := math.Inf(1)
		if i+1 < len(beta.segs) {
			end = beta.segs[i+1].X
		}
		if d := end - alpha.inverseSup(s.Y); d > h {
			h = d
		}
	}
	// The supremum can also occur as y -> 0+ with a latency-only beta and
	// an alpha with zero initial value: cover it with the first positive
	// ordinate of alpha (its initial jump) handled above, plus t=0 burst:
	if b := alpha.ValueAtZero(); b > Eps {
		if d := beta.InverseInf(b); d > h {
			h = d
		}
	} else if len(beta.segs) > 0 && beta.segs[0].Slope <= Eps && len(beta.segs) > 1 {
		// alpha starts at 0 with some rate; any positive ordinate waits at
		// least beta's latency.
		if alpha.LongTermRate() > Eps || alpha.LastSegment().Y > Eps {
			if d := beta.segs[1].X; d > h {
				h = d
			}
		}
	}
	return h
}

// VerticalDeviation returns v(alpha, beta) = sup_{t>=0} (alpha(t) - beta(t)),
// the classical backlog (buffer occupancy) bound. It is +Inf for unstable
// servers.
func VerticalDeviation(alpha, beta Curve) float64 {
	ra, rb := alpha.LongTermRate(), beta.LongTermRate()
	if ra > rb+Eps {
		return math.Inf(1)
	}
	xs := mergeXs(alpha, beta)
	v := 0.0
	for _, x := range xs {
		if d := alpha.Eval(x) - beta.Eval(x); d > v {
			v = d
		}
	}
	return v
}
