package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minPercentileSamples is the fewest samples a percentile other than the
// median is taken from. Below it a tail percentile is no tail: one slow
// sample moves it.
const minPercentileSamples = 40

// minBeyond is the fewest samples that must lie beyond a tail percentile
// for it to repeat from run to run (so p99 needs 1000 samples).
const minBeyond = 10

// errTooFewSamples is returned by percentile when the sample count cannot
// support the requested percentile.
var errTooFewSamples = errors.New("too few samples for this percentile")

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// method. It refuses fewer than minPercentileSamples samples, and fewer
// than minBeyond samples beyond q.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0,1)", q)
	}
	n := len(xs)
	if n < minPercentileSamples || float64(n)*(1-q) < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples: %w", 100*q, n, errTooFewSamples)
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(n))) - 1
	return s[max(i, 0)], nil
}

// median returns the median of xs (the mean of the middle pair for an even
// count). Unlike a tail percentile it is reported for any sample count:
// with few samples the median is the only robust summary.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the 99th percentile when the samples support it (1000 or
// more), else the median: with too few samples for a tail, the guide this
// benchmark follows reports the median alone, and a lower percentile in
// its place would flip statistic with the run's sample count.
func tail(xs []float64) float64 {
	if p, err := percentile(xs, 0.99); err == nil {
		return p
	}
	return median(xs)
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
