package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{ten, 0.5, 5},
		{ten, 0.9, 9},
		{ten, 0.91, 10},
		{ten, 1, 10},
		{ten, 0.01, 1},
		{ten, 0, 1},
	} {
		xs := append([]float64(nil), c.xs...)
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	// 200 samples: p99 leaves exactly two above it.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.99); got != 198 {
		t.Errorf("p99 of 1..200 = %g, want 198", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
		name      string
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, "1..10"},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5, "1..5 shuffled"},
		{[]float64{2, 4}, 1.5, 3, 4.5, "two values"},
		{[]float64{3}, 3, 3, 3, "one value"},
	} {
		q1, m, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("%s: quartiles = %g %g %g, want %g %g %g", c.name, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %g", m)
	}
}

func TestMaxRate(t *testing.T) {
	pass := func(r, p float64) ladderStep { return ladderStep{rate: r, p99ms: p, pass: true} }
	fail := func(r, p float64) ladderStep { return ladderStep{rate: r, p99ms: p} }
	for _, c := range []struct {
		name  string
		steps []ladderStep
		want  float64
	}{
		{"empty", nil, 0},
		{"never fails: last rate is a lower bound", []ladderStep{pass(1000, 1), pass(1100, 2)}, 1100},
		// log p99 goes from log 1 to log 25; log 5 is halfway.
		{"interpolated on log p99", []ladderStep{pass(1000, 1), pass(1100, 1), fail(1200, 25)}, 1150},
		{"crossing at the failing step", []ladderStep{pass(1000, 1), fail(1100, 5.0001)}, 1100},
		{"failed on another condition", []ladderStep{pass(1000, 1), fail(1100, 2)}, 1000},
		{"first step fails on latency", []ladderStep{fail(1000, 10)}, 500},
		{"first step fails otherwise", []ladderStep{fail(1000, 1)}, 1000},
	} {
		got := maxRate(c.steps, 5)
		if math.Abs(got-c.want) > 0.5 {
			t.Errorf("%s: maxRate = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestMillis(t *testing.T) {
	got := millis([]time.Duration{1500 * time.Microsecond, 2 * time.Second})
	if got[0] != 1.5 || got[1] != 2000 {
		t.Errorf("millis = %v", got)
	}
}
