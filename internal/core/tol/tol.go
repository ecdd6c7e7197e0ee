// Package tol centralises the floating-point comparison tolerance used
// by the delay analyses and the conformance oracle.
//
// The engines compute with float64 throughout, so two mathematically
// equal quantities reached through different summation orders differ in
// the last bits. Historically each comparison site guarded against that
// with its own absolute 1e-9 literal — fine for the paper's
// microsecond-scale sample network, but wrong at scale: a 128 ms BAG
// configuration pushes busy periods and candidate offsets past 1e6 us,
// where an absolute 1e-9 is below one ulp and the guard silently
// vanishes. This package is the single named constant, applied
// *relatively* wherever the compared values scale with time.
//
// The tolerance never affects the determinism contract: identity
// invariants (parallel parity, repeatability, served-vs-cold) use
// exact bitwise equality, not tol.
package tol

import "math"

// EpsRel is the relative comparison tolerance. 1e-9 relative sits ~7
// decimal digits above the float64 epsilon (~2.2e-16), wide enough to
// absorb any realistic accumulation wobble across the engines' summation
// orders and narrow enough that no genuine analytic difference (bounds
// differ by fractions of a microsecond at least) is ever masked.
const EpsRel = 1e-9

// At returns the absolute tolerance at the given scale:
// EpsRel * max(1, |scale|). Below magnitude one the tolerance floors at
// EpsRel itself, preserving the historical absolute guard for
// microsecond-scale values.
func At(scale float64) float64 {
	return EpsRel * math.Max(1, math.Abs(scale))
}

// Leq reports a <= b up to the tolerance at b's scale.
func Leq(a, b float64) bool {
	return a <= b+At(b)
}

// Gt reports a > b beyond the tolerance at b's scale (the strict
// complement of Leq).
func Gt(a, b float64) bool {
	return !Leq(a, b)
}
