package main

import (
	"math"
	"slices"
	"time"
)

// tail returns the tail percentile the sample supports: p99 when at least
// ten samples lie beyond it, otherwise the highest percentile that still
// has ten samples beyond it (nearest rank). pct is that percentile, 0 with
// no samples. With ten samples or fewer no percentile qualifies and tail
// reports the median, pct 50.
func tail(samples []float64) (value, pct float64) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	if n <= 10 {
		return quantile(s, 0.5), 50
	}
	i := (99*n+99)/100 - 1 // nearest rank of p99: ceil(0.99n) - 1
	if n-1-i < 10 {
		i = n - 11 // exactly ten samples beyond
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

// windowRate is the median over n equal windows of a phase of length
// total of the events done in each window, per second. done holds each
// event's completion offset from the phase start. A transient stall (a
// neighbour's CPU burst, a GC cycle) moves one window, not the median.
func windowRate(done []time.Duration, total time.Duration, n int) float64 {
	return median(windowRates(done, total, n))
}

// windowRates is the per-window rates windowRate takes the median of.
func windowRates(done []time.Duration, total time.Duration, n int) []float64 {
	if total <= 0 || n < 1 {
		return nil
	}
	counts := make([]float64, n)
	for _, d := range done {
		counts[min(int(int64(d)*int64(n)/int64(total)), n-1)]++
	}
	w := total.Seconds() / float64(n)
	for i := range counts {
		counts[i] /= w
	}
	return counts
}

// median returns the 50th percentile of unsorted samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
