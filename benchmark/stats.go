package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..1) of vs by linear interpolation
// between closest ranks; it sorts vs in place. 0 when vs is empty.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := p * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vs[lo] + (vs[hi]-vs[lo])*(pos-float64(lo))
}

// tailRank is the percentile the p95 metrics report over n samples: the 95th,
// or, when fewer than twenty samples would lie beyond it, the highest
// percentile that still has twenty beyond (and never below the median). Ten
// beyond is the usual floor; on curate_mixed's hundred curate steps that is
// the 90th percentile, in the thin tail above the latencies' upper mode, and
// it spread 20 % between runs of the same code where the 83rd spread 8 %.
func tailRank(n int) float64 {
	if n < 400 {
		return math.Max(0.5, 1-20/float64(n))
	}
	return 0.95
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quartiles reproduces Python's statistics.quantiles(vs, n=4), the rule the
// benchmark's acceptance check applies to ten runs. It needs two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
