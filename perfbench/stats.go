package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to count as measured rather than guessed.
const minBeyond = 10

// pctile is one percentile read off a sample set, with the counts that
// say whether it can be trusted.
type pctile struct {
	P      float64 // requested percentile, 0-100
	Value  float64
	N      int  // samples in the set
	Beyond int  // samples strictly above the rank the value was read at
	OK     bool // Beyond >= minBeyond
}

// percentile returns the nearest-rank percentile p of xs (xs need not
// be sorted; it is not modified).
func percentile(xs []float64, p float64) pctile {
	out := pctile{P: p, N: len(xs)}
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	out.Value = s[rank-1]
	out.Beyond = len(s) - rank
	out.OK = out.Beyond >= minBeyond
	return out
}

// highestPercentile is the reporting rule for a timing: the highest of
// the ladder's percentiles that still has minBeyond samples beyond it.
// With too few samples for even the median it returns the median with
// OK false.
func highestPercentile(xs []float64) pctile {
	ladder := []float64{99.9, 99, 95, 90, 75, 50}
	for _, p := range ladder {
		if pc := percentile(xs, p); pc.OK {
			return pc
		}
	}
	return percentile(xs, 50)
}

// quartiles returns the three cut points statistics.quantiles(xs, n=4)
// gives in Python (the default "exclusive" method, including its
// linear extrapolation at the ends for very small sets).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure a bound is compared against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// median is the middle of xs (the mean of the two middles for even
// counts); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
