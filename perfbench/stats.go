package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail reports the highest candidate percentile that has at least
// minBeyond samples strictly beyond its nearest-rank position, with
// its value. Fewer than 2*minBeyond samples leave no candidate; the
// maximum is then reported as percentile 100.
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	for _, p := range tailPercentiles {
		rank := nearestRank(p, n)
		if n-rank >= minBeyond {
			return p, s[rank-1]
		}
	}
	return 100, s[n-1]
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[nearestRank(p, len(xs))-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(p float64, n int) int {
	// The epsilon keeps float error from pushing an exact rank (99.9% of
	// 10000) up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median returns the median of xs, averaging the middle pair.
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

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// failFrac is failed operations over attempted ones; a run that
// attempted nothing failed outright.
func failFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
