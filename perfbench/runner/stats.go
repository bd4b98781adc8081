package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of raw samples, linearly
// interpolated between the two closest ranks. It sorts xs in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	r := q * float64(len(xs)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return xs[lo] + (xs[hi]-xs[lo])*(r-float64(lo))
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
