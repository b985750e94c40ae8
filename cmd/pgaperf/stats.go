package main

import (
	"fmt"
	"sort"
)

// tailBeyond is the number of samples the reported tail percentile must
// leave beyond it: the tail is the highest percentile that still has at
// least this many samples above it, so it never rests on a handful of
// outliers.
const tailBeyond = 10

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's acceptance check is stated in. It needs at least
// two samples.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", n)
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), nil
}

// tail returns the highest percentile of xs that has at least
// tailBeyond samples beyond it — the (n-tailBeyond)-th smallest sample —
// together with that percentile, 100·(n-tailBeyond)/n. With n ≤
// tailBeyond no percentile qualifies and ok is false.
func tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}

// tailBlock is the block size of the reported tails: a tail is taken in
// each block of this many consecutive samples — so it is the p90 of the
// block — and the median over the blocks is reported.
const tailBlock = 100

// blockTail returns the median over consecutive blocks of tailBlock
// samples of each block's tail (a remainder shorter than a block is left
// out), with the blocks' percentile and count. With fewer than tailBlock
// samples it is the tail of all of them.
func blockTail(xs []float64) (value, percentile float64, blocks int, ok bool) {
	if len(xs) < tailBlock {
		value, percentile, ok = tail(xs)
		return value, percentile, 1, ok
	}
	var tails []float64
	for i := 0; i+tailBlock <= len(xs); i += tailBlock {
		v, p, _ := tail(xs[i : i+tailBlock])
		tails = append(tails, v)
		percentile = p
	}
	return median(tails), percentile, len(tails), true
}

// driftHalf is how many samples on each side, in the order they were
// taken, a sample is compared with to take the host's speed out of it.
const driftHalf = 10

// driftFreeTail is the benchmark's tail. A shared host runs at changing
// speed for seconds at a time, and a plain tail lands in whichever slow
// phase a run met. So each sample is divided by the local speed — the
// larger of the medians of the driftHalf samples before it and after it,
// so a sample at the edge of a slow phase is compared with the slow side
// — the tail of those ratios is taken by blockTail, and the result is
// scaled by the median of all samples: the tail the run would have had
// at its median speed.
func driftFreeTail(xs []float64) (value, percentile float64, blocks int, ok bool) {
	rel := make([]float64, len(xs))
	for i, x := range xs {
		m := 0.0
		if i > 0 {
			m = median(xs[max(0, i-driftHalf):i])
		}
		if i+1 < len(xs) {
			m = max(m, median(xs[i+1:min(len(xs), i+1+driftHalf)]))
		}
		rel[i] = 1
		if m > 0 {
			rel[i] = x / m
		}
	}
	r, pct, blocks, ok := blockTail(rel)
	return r * median(xs), pct, blocks, ok
}

// spread is the run-to-run spread of one metric: the distance between
// the first and third quartile of its per-run values, as a share of
// their median.
func spread(values []float64) (float64, error) {
	q1, q3, err := quartiles(values)
	if err != nil {
		return 0, err
	}
	med := median(values)
	if med == 0 {
		if q3 == q1 {
			return 0, nil
		}
		return 0, fmt.Errorf("median is 0 but the quartiles differ")
	}
	return (q3 - q1) / abs(med), nil
}

// worsening is the share by which the median of second is worse than
// the median of first, for a metric where better is "lower" or
// "higher"; a negative value means second improved.
func worsening(first, second []float64, better string) float64 {
	a, b := median(first), median(second)
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / abs(a)
	}
	return (b - a) / abs(a)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
