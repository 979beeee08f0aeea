package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// fewer, and the value is set by a handful of outliers.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, refusing
// when fewer than minBeyond samples lie above it.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, want at least %d",
			p, n, max(n-rank, 0), minBeyond)
	}
	return sortedCopy(xs)[rank-1], nil
}

// blockPercentiles splits xs, in arrival order, into consecutive blocks
// of block samples (the remainder joins the last block) and returns the
// p-th percentile of each. Every block must satisfy percentile's rule.
func blockPercentiles(xs []float64, p float64, block int) ([]float64, error) {
	nb := max(len(xs)/block, 1)
	vals := make([]float64, 0, nb)
	for b := 0; b < nb; b++ {
		hi := (b + 1) * block
		if b == nb-1 {
			hi = len(xs)
		}
		v, err := percentile(xs[b*block:hi], p)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method). It
// needs at least two samples; with fewer it returns NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// validName reports whether a metric name is 1 to 64 characters of
// [A-Za-z0-9_.-] starting with a letter or digit.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '_' || c == '.' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}
