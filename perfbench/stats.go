package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported tail percentile must
// leave above it: a tail read from fewer samples is noise.
const minBeyond = 10

// tailPercentile returns the value at the nearest-rank percentile want,
// or, when fewer than minBeyond samples lie above that rank, at the
// highest rank that leaves minBeyond above it. pct is the percentile
// actually used; ok is false when there are too few samples for any.
func tailPercentile(xs []float64, want float64) (value, pct float64, ok bool) {
	n := len(xs)
	// The epsilon keeps float error in want*n from skipping a rank.
	k := int(math.Ceil(want*float64(n)-1e-9)) - 1
	pct = want
	if lim := n - 1 - minBeyond; k > lim {
		k = lim
		pct = float64(k+1) / float64(n)
	}
	if k < 0 {
		return 0, 0, false
	}
	return sorted(xs)[k], pct, true
}

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean is the mean of the middle 80% of xs, or 0 for no samples.
// A host's speed can flip between two levels for seconds at a time,
// which splits a run's samples into two clusters; their median then
// jumps between the clusters as their shares cross a half, where this
// mean moves with the shares, as the run's total time does.
func trimmedMean(xs []float64) float64 {
	s := sorted(xs)
	cut := len(s) / 10
	return mean(s[cut : len(s)-cut])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0, so no metric becomes NaN or Inf.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// in converts durations to samples in the given unit.
func in(unit time.Duration, ds ...time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
