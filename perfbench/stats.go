package main

import (
	"math"
	"slices"
)

// median returns the median of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples a reported tail percentile must have
// above it.
const minBeyond = 10

// tail returns the highest whole percentile p in [50, 99] that has at
// least minBeyond samples above it, with its nearest-rank value. With too
// few samples for p50 to qualify, it returns p = 100 and the maximum, so
// a short run still reports a value, flagged by the percentile.
func tail(xs []float64) (p int, v float64) {
	if len(xs) == 0 {
		return 100, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	for p = 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100)) // 1-based nearest rank
		if n-rank >= minBeyond {
			return p, s[rank-1]
		}
	}
	return 100, s[n-1]
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
