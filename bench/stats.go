package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, the
// convention metrics.Histogram uses for /stats: the smallest value with at
// least p of the samples at or below it. It sorts xs in place and returns 0
// for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// millis converts durations to float milliseconds for percentile.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so the spreads this benchmark prints are the ones a reader
// recomputes from its JSON lines. It needs at least two values; with one it
// returns that value three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle value of xs (the mean of the two middle values for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ladderStep is one rate step of the frontal capacity ladder.
type ladderStep struct {
	rate  float64 // offered requests per second
	p99ms float64 // latency p99, timed from each request's due time
	pass  bool    // all four pass conditions held
}

// maxRate is the highest sustainable rate a ladder shows: between the last
// passing step and the first failing one, the rate is interpolated on
// log p99 to where p99 crosses limitMs. When the failing step failed on
// another condition than latency (errors, a late generator, a growing
// backlog) the last passing rate stands. A ladder with no failing step
// returns its last rate (a lower bound); one whose first step already fails
// scales that step's rate down by how far p99 overshot the limit (an upper
// bound when it failed on another condition).
func maxRate(steps []ladderStep, limitMs float64) float64 {
	if len(steps) == 0 {
		return 0
	}
	fail := -1
	for i, s := range steps {
		if !s.pass {
			fail = i
			break
		}
	}
	switch fail {
	case -1:
		return steps[len(steps)-1].rate
	case 0:
		return steps[0].rate * math.Min(1, limitMs/steps[0].p99ms)
	}
	lo, hi := steps[fail-1], steps[fail]
	if hi.p99ms <= limitMs || lo.p99ms <= 0 || lo.p99ms >= hi.p99ms {
		return lo.rate
	}
	f := (math.Log(limitMs) - math.Log(lo.p99ms)) / (math.Log(hi.p99ms) - math.Log(lo.p99ms))
	if f < 0 {
		f = 0
	} else if f > 1 {
		f = 1
	}
	return lo.rate + f*(hi.rate-lo.rate)
}
