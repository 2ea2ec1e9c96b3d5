package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a reported tail percentile must leave
// above it; a percentile with fewer samples beyond it is noise.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the q-th percentile (0..100) of xs, interpolating
// linearly between the two closest ranks. It returns 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailQuantile is the percentile to report for a tail: want, lowered
// until at least minBeyond of the n samples lie beyond it, and never
// below the median.
func tailQuantile(n int, want float64) float64 {
	q := want
	if n > 0 {
		if lim := 100 * (1 - float64(minBeyond)/float64(n)); lim < q {
			q = lim
		}
	}
	return math.Max(q, 50)
}

// tail returns the value at tailQuantile(len(xs), want) and that
// quantile, so a report can say which percentile it actually is.
func tail(xs []float64, want float64) (value, q float64) {
	q = tailQuantile(len(xs), want)
	return percentile(xs, q), q
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so quartiles printed here match the ones Python computes.
// With fewer than two samples both quartiles are the lone value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1) // Python clamps j to 1..n-1
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
