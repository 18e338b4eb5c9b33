package main

import (
	"fmt"
	"sort"
)

// level is a percentile as the exact fraction num/den, so the rank
// arithmetic never rounds.
type level struct {
	num, den int
	name     string
}

var (
	p50  = level{50, 100, "p50"}
	p75  = level{75, 100, "p75"}
	p90  = level{90, 100, "p90"}
	p99  = level{99, 100, "p99"}
	p999 = level{999, 1000, "p99.9"}
	// ladder is the set of percentiles a tail may be reported at.
	ladder = []level{p50, p75, p90, p99, p999}
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile l in n
// samples: the smallest rank with at least l of the samples at or below
// it.
func (l level) rank(n int) int { return (n*l.num + l.den - 1) / l.den }

// tailLevel is the highest ladder percentile with at least minBeyond
// samples beyond it, and no higher than highest unless highest is the
// zero level; below 20 samples it falls back to the median.
func tailLevel(n int, highest level) level {
	best := p50
	for _, l := range ladder {
		if highest.den != 0 && l.num*highest.den > highest.num*l.den {
			break
		}
		if n-l.rank(n) >= minBeyond {
			best = l
		}
	}
	return best
}

// at returns percentile l of the samples (sorted ascending) by nearest
// rank, or 0 with no samples.
func at(sorted []float64, l level) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(l.rank(len(sorted)), 1)-1]
}

// sortedCopy returns the samples sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (the mean of the two middle values for even counts).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
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

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), the spread the acceptance rules are stated in.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least two values, have %d", ld)
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), nil
}
