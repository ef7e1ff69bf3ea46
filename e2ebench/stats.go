package main

import (
	"math"
	"sort"
	"strconv"
)

// minBeyond is how many samples must lie above a reported tail
// percentile.
const minBeyond = 10

// latencies ranks a run's op latencies: successes by duration, then
// every failed op, slower than any success.
type latencies struct {
	ok     []float64 // sorted ascending
	failed int

	// failValue stands in for a failed op's latency when a percentile
	// lands on one: the length of the timed phase, the longest any op
	// of the run could have taken.
	failValue float64
}

func newLatencies(okMS []float64, failed int, failValue float64) latencies {
	s := append([]float64(nil), okMS...)
	sort.Float64s(s)
	return latencies{ok: s, failed: failed, failValue: failValue}
}

func (l latencies) count() int { return len(l.ok) + l.failed }

// percentile is the nearest-rank p-quantile. ok is false when fewer
// than minBeyond samples lie above it, so the tail is not supported
// by the sample.
func (l latencies) percentile(p float64) (v float64, beyond int, ok bool) {
	n := l.count()
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = min(max(rank, 0), n-1)
	beyond = n - 1 - rank
	if rank < len(l.ok) {
		v = l.ok[rank]
	} else {
		v = l.failValue
	}
	return v, beyond, beyond >= minBeyond
}

// median of a sample (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method):
// the i-th cut point sits at position (len+1)·i/4 of the sorted data,
// interpolated linearly and clamped to the ends.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		pos := float64((n+1)*i) / 4
		j := int(math.Floor(pos))
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return cut(1), cut(2), cut(3)
}

// percentileName renders 0.99 as "p99" and 0.9 as "p90".
func percentileName(p float64) string {
	return "p" + strconv.FormatFloat(math.Round(p*1000)/10, 'f', -1, 64)
}
