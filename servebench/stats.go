package main

import (
	"math"
	"sort"
	"time"
)

// minBeyondTail is how many samples must lie above the reported tail
// percentile for it to mean anything: with fewer, the "tail" is one or
// two unlucky requests and moves from run to run on its own.
const minBeyondTail = 10

// tailPercentile returns the highest whole percentile of n samples that
// leaves at least minBeyondTail samples above it. Each workload fixes its
// tail at tailPercentile of its request count (see workloads.go), so the
// reported tail always rests on the same number of samples.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		// Samples strictly above the nearest-rank p-th percentile.
		if n-rankIndex(n, float64(p))-1 >= minBeyondTail {
			return p
		}
	}
	return 50
}

// rankIndex is the 0-based nearest-rank index of percentile p in n
// sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place). It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankIndex(len(xs), p)]
}

// median is the 50th percentile of a copy of xs: averaging the two
// middle samples of an even count, so a median of repeated set-up times
// is not pinned to one of them.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
