package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRankAndBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		value  float64
		beyond int
		ok     bool
	}{
		{1000, 99, 990, 10, true},
		{1000, 50, 500, 500, true},
		{999, 99, 990, 9, false}, // rank ceil(989.01)=990, one short of ten beyond
		{100, 90, 90, 10, true},
		{100, 99, 99, 1, false},
		{1, 99, 1, 0, false},
	}
	for _, c := range cases {
		got := percentile(seq(c.n), c.p)
		if got.Value != c.value || got.Beyond != c.beyond || got.OK != c.ok || got.N != c.n {
			t.Errorf("percentile(n=%d, p%g) = %+v, want value %g beyond %d ok %v", c.n, c.p, got, c.value, c.beyond, c.ok)
		}
	}
}

func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	cases := map[int]float64{20000: 99.9, 5000: 99, 1000: 99, 999: 95, 200: 95, 100: 90, 40: 75, 20: 50, 5: 50}
	for n, want := range cases {
		got := highestPercentile(seq(n))
		if got.P != want {
			t.Errorf("n=%d: highest trustworthy percentile p%g, want p%g", n, got.P, want)
		}
		if n >= 20 && got.Beyond < minBeyond {
			t.Errorf("n=%d: p%g has only %d beyond", n, got.P, got.Beyond)
		}
	}
	if got := highestPercentile(seq(5)); got.OK {
		t.Errorf("5 samples cannot support even the median with ten beyond: %+v", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, [3]float64{3, 6, 9}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", s)
	}
}
