package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail read off fewer samples is one or two outliers, not a
// percentile.
const minBeyond = 10

// series holds raw observations of one quantity. Percentiles are computed
// exactly from them, never from histogram buckets.
type series struct {
	xs     []float64
	sorted bool
}

func (s *series) add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// addSince records the milliseconds elapsed since start.
func (s *series) addSince(start time.Time) { s.add(ms(time.Since(start))) }

func (s *series) n() int { return len(s.xs) }

func (s *series) sort() []float64 {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	return s.xs
}

// quantile returns the nearest-rank q-quantile: the smallest observation
// with at least a fraction q of the sample at or below it. An empty series
// has no quantile and reports NaN.
func (s *series) quantile(q float64) float64 {
	xs := s.sort()
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[rank(len(xs), q)]
}

// rank is the 0-based index of the nearest-rank q-quantile of n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond counts the samples strictly after the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// tail returns the q-quantile when at least minBeyond samples lie beyond
// it; otherwise it falls back, in steps of 0.1 percentage point, to the
// highest percentile the sample supports (never below the median), and
// reports which one it used.
func (s *series) tail(q float64) (value, used float64) {
	used = q
	for used > 0.5 && beyond(s.n(), used) < minBeyond {
		used = math.Round((used-0.001)*1000) / 1000
	}
	return s.quantile(used), used
}

func (s *series) median() float64 { return s.quantile(0.5) }

func (s *series) sum() float64 {
	var t float64
	for _, x := range s.xs {
		t += x
	}
	return t
}

func (s *series) mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s.xs))
}

// ratio divides num by den, reporting 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
