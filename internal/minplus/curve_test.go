package minplus

import (
	"math"
	"testing"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

func TestNewCurveValidation(t *testing.T) {
	cases := []struct {
		name string
		segs []Segment
		ok   bool
	}{
		{"empty", nil, false},
		{"single affine", []Segment{{0, 5, 1}}, true},
		{"first not at zero", []Segment{{1, 0, 1}}, false},
		{"negative slope", []Segment{{0, 0, -1}}, false},
		{"negative value", []Segment{{0, -2, 1}}, false},
		{"non increasing X", []Segment{{0, 0, 1}, {0, 1, 1}}, false},
		{"decreasing across pieces", []Segment{{0, 0, 2}, {1, 1, 1}}, false},
		{"upward jump ok", []Segment{{0, 0, 1}, {1, 5, 1}}, true},
		{"rate latency shape", []Segment{{0, 0, 0}, {2, 0, 3}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewCurve(c.segs)
			if (err == nil) != c.ok {
				t.Fatalf("NewCurve(%v) error = %v, want ok=%v", c.segs, err, c.ok)
			}
		})
	}
}

func TestEvalAffine(t *testing.T) {
	c := Affine(10, 2)
	for _, tc := range []struct{ t, want float64 }{
		{-1, 0}, {0, 10}, {1, 12}, {100, 210},
	} {
		if got := c.Eval(tc.t); !almostEq(got, tc.want) {
			t.Errorf("Affine(10,2).Eval(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
}

func TestEvalRateLatency(t *testing.T) {
	c := RateLatency(100, 16)
	for _, tc := range []struct{ t, want float64 }{
		{0, 0}, {16, 0}, {17, 100}, {20, 400},
	} {
		if got := c.Eval(tc.t); !almostEq(got, tc.want) {
			t.Errorf("RateLatency(100,16).Eval(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
}

func TestRateLatencyZeroLatency(t *testing.T) {
	c := RateLatency(5, 0)
	if got := c.NumSegments(); got != 1 {
		t.Fatalf("zero-latency rate-latency should be a single piece, got %d", got)
	}
	if got := c.Eval(3); !almostEq(got, 15) {
		t.Errorf("Eval(3) = %g, want 15", got)
	}
}

func TestZeroAndPlateau(t *testing.T) {
	if got := Zero().Eval(42); got != 0 {
		t.Errorf("Zero().Eval(42) = %g, want 0", got)
	}
	p := Plateau(7)
	if got := p.Eval(0); !almostEq(got, 7) {
		t.Errorf("Plateau(7).Eval(0) = %g, want 7", got)
	}
	if got := p.Eval(1e9); !almostEq(got, 7) {
		t.Errorf("Plateau(7).Eval(1e9) = %g, want 7", got)
	}
}

func TestConcaveConvexClassification(t *testing.T) {
	lb := LeakyBucket(100, 2)
	if !lb.IsConcave() {
		t.Error("leaky bucket should be concave")
	}
	if lb.IsConvex() {
		t.Error("leaky bucket with positive burst is not convex")
	}
	rl := RateLatency(100, 16)
	if !rl.IsConvex() {
		t.Error("rate-latency should be convex")
	}
	if rl.IsConcave() {
		t.Error("rate-latency with positive latency is not concave")
	}
	// Min of two leaky buckets stays concave.
	m := Min(LeakyBucket(10, 5), LeakyBucket(100, 1))
	if !m.IsConcave() {
		t.Errorf("min of leaky buckets should be concave: %v", m)
	}
}

func TestNormalizeMergesCollinear(t *testing.T) {
	c := MustCurve([]Segment{{0, 0, 2}, {1, 2, 2}, {2, 4, 2}})
	if got := c.NumSegments(); got != 1 {
		t.Errorf("collinear pieces should merge to 1 segment, got %d: %v", got, c)
	}
}

func TestInverseInf(t *testing.T) {
	c := RateLatency(100, 16)
	for _, tc := range []struct{ y, want float64 }{
		{0, 0}, {100, 17}, {400, 20},
	} {
		if got := c.InverseInf(tc.y); !almostEq(got, tc.want) {
			t.Errorf("InverseInf(%g) = %g, want %g", tc.y, got, tc.want)
		}
	}
	lb := LeakyBucket(10, 2)
	if got := lb.InverseInf(5); !almostEq(got, 0) {
		t.Errorf("InverseInf below burst should be 0, got %g", got)
	}
	if got := lb.InverseInf(20); !almostEq(got, 5) {
		t.Errorf("InverseInf(20) = %g, want 5", got)
	}
	bounded := Plateau(7)
	if got := bounded.InverseInf(8); !math.IsInf(got, 1) {
		t.Errorf("InverseInf above a bounded curve should be +Inf, got %g", got)
	}
	// An ordinate inside a jump into the last piece is first reached at
	// the jump, not extrapolated back along the last piece's slope.
	jump := MustCurve([]Segment{{0, 0, 0}, {10, 100, 2}})
	if got := jump.InverseInf(50); got != 10 {
		t.Errorf("InverseInf inside a jump into the last piece = %g, want 10", got)
	}
}

func TestLongTermRateAndValueAtZero(t *testing.T) {
	c := MustCurve([]Segment{{0, 3, 9}, {10, 93, 1}})
	if got := c.LongTermRate(); !almostEq(got, 1) {
		t.Errorf("LongTermRate = %g, want 1", got)
	}
	if got := c.ValueAtZero(); !almostEq(got, 3) {
		t.Errorf("ValueAtZero = %g, want 3", got)
	}
}

func TestStringRendering(t *testing.T) {
	s := Affine(1, 2).String()
	if s == "" {
		t.Error("String() should not be empty")
	}
}
