package minplus

import (
	"math"
	"testing"
)

func TestHorizontalDeviationLeakyBucketRateLatency(t *testing.T) {
	// Classical closed form: h(gamma_{r,b}, beta_{R,T}) = T + b/R for r <= R.
	alpha := LeakyBucket(4000, 1) // 4000 bits burst, 1 bit/us
	beta := RateLatency(100, 16)  // 100 bits/us, 16 us latency
	if got, want := HorizontalDeviation(alpha, beta), 16+4000.0/100; !almostEq(got, want) {
		t.Errorf("h = %g, want %g", got, want)
	}
}

func TestHorizontalDeviationAggregate(t *testing.T) {
	// Five identical leaky buckets through one port: h = T + 5b/R.
	agg := LeakyBucket(4000, 1)
	for i := 1; i < 5; i++ {
		agg = Add(agg, LeakyBucket(4000, 1))
	}
	beta := RateLatency(100, 16)
	if got, want := HorizontalDeviation(agg, beta), 16+5*4000.0/100; !almostEq(got, want) {
		t.Errorf("h = %g, want %g", got, want)
	}
}

func TestHorizontalDeviationUnstable(t *testing.T) {
	alpha := LeakyBucket(100, 200)
	beta := RateLatency(100, 1)
	if got := HorizontalDeviation(alpha, beta); !math.IsInf(got, 1) {
		t.Errorf("h for unstable port = %g, want +Inf", got)
	}
}

func TestHorizontalDeviationZeroBurst(t *testing.T) {
	// alpha = rho*t with rho < R: the deviation is exactly the latency.
	alpha := Affine(0, 10)
	beta := RateLatency(100, 16)
	if got := HorizontalDeviation(alpha, beta); !almostEq(got, 16) {
		t.Errorf("h = %g, want 16", got)
	}
}

func TestHorizontalDeviationGroupedEnvelope(t *testing.T) {
	// Grouping lowers the deviation: two flows serialized on a 100 bits/us
	// link burst at most one max frame ahead of the link rate.
	sum := Add(LeakyBucket(4000, 1), LeakyBucket(4000, 1))
	grouped := Min(sum, Affine(4000, 100))
	beta := RateLatency(100, 16)
	hSum := HorizontalDeviation(sum, beta)
	hGrp := HorizontalDeviation(grouped, beta)
	if hGrp >= hSum {
		t.Errorf("grouped deviation %g should be < ungrouped %g", hGrp, hSum)
	}
	if hGrp < 16 {
		t.Errorf("grouped deviation %g cannot be below the latency", hGrp)
	}
}

func TestHorizontalDeviationEqualRates(t *testing.T) {
	// Arrival rate equal to service rate: finite deviation T + b/R.
	alpha := LeakyBucket(1000, 100)
	beta := RateLatency(100, 5)
	if got, want := HorizontalDeviation(alpha, beta), 5+1000.0/100; !almostEq(got, want) {
		t.Errorf("h = %g, want %g", got, want)
	}
}

func TestHorizontalDeviationBoundedAlpha(t *testing.T) {
	// A bounded arrival curve is always stable even against a slow server.
	alpha := Min(LeakyBucket(100, 10), Plateau(500))
	beta := RateLatency(1, 2)
	got := HorizontalDeviation(alpha, beta)
	if math.IsInf(got, 1) {
		t.Fatal("bounded arrivals must have finite deviation")
	}
	// The plateau value 500 is first reached at t = (500-100)/10 = 40, so
	// h = sup_y (betaInv(y) - alphaInv(y)) = (2 + 500/1) - 40 = 462.
	if want := 462.0; !almostEq(got, want) {
		t.Errorf("h = %g, want %g", got, want)
	}
}

func TestHorizontalDeviationFlatServicePiece(t *testing.T) {
	// beta stalls at height 10 on [10, 20), so every ordinate just above
	// 10 waits until t = 20. alpha = 9 + t/2 first exceeds 10 at t = 2:
	// h = 20 - 2 = 18, a supremum approached from above the flat piece.
	alpha := LeakyBucket(9, 0.5)
	beta := MustCurve([]Segment{{0, 0, 1}, {10, 10, 0}, {20, 10, 1}})
	if got, want := HorizontalDeviation(alpha, beta), 18.0; !almostEq(got, want) {
		t.Errorf("h = %g, want %g", got, want)
	}
}

func TestVerticalDeviationLeakyBucketRateLatency(t *testing.T) {
	// Classical closed form: v(gamma_{r,b}, beta_{R,T}) = b + r*T.
	alpha := LeakyBucket(4000, 1)
	beta := RateLatency(100, 16)
	if got, want := VerticalDeviation(alpha, beta), 4000+1.0*16; !almostEq(got, want) {
		t.Errorf("v = %g, want %g", got, want)
	}
}

func TestVerticalDeviationUnstable(t *testing.T) {
	if got := VerticalDeviation(LeakyBucket(1, 2), Affine(0, 1)); !math.IsInf(got, 1) {
		t.Errorf("v = %g, want +Inf", got)
	}
}

func TestDeviationsNonNegative(t *testing.T) {
	alpha := LeakyBucket(1, 0.1)
	beta := Affine(0, 1e6) // essentially instantaneous service
	if got := HorizontalDeviation(alpha, beta); got < 0 {
		t.Errorf("h = %g, want >= 0", got)
	}
	if got := VerticalDeviation(alpha, beta); got < 0 {
		t.Errorf("v = %g, want >= 0", got)
	}
}
