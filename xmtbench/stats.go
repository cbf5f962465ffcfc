package main

import (
	"fmt"
	"sort"
)

// Percentiles are exact order statistics over raw samples (nearest rank),
// expressed in tenths of a percent so that ranks are computed in integers.

// minBeyond is how many samples a reported tail percentile must leave above
// its rank.
const minBeyond = 10

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// rank returns the 1-based nearest-rank position of percentile p (tenths of
// a percent) among n samples.
func rank(p, n int) int {
	r := (p*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns percentile p (tenths of a percent) of sorted samples.
func percentile(sorted []float64, p int) float64 {
	return sorted[rank(p, len(sorted))-1]
}

// tailFor returns the highest ladder percentile, at most maxP, that leaves
// at least minBeyond of n samples above its rank; the median when none
// does.
func tailFor(n, maxP int) int {
	for _, p := range tailLadder {
		if p <= maxP && n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 500
}

// dist summarises raw samples: count, median and the highest tail
// percentile the count supports.
type dist struct {
	n     int
	p50   float64
	tailP int
	tail  float64
}

func summarize(xs []float64) dist { return summarizeUpTo(xs, 999) }

// summarizeUpTo is summarize with the tail percentile capped at maxP.
func summarizeUpTo(xs []float64, maxP int) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := tailFor(len(s), maxP)
	return dist{n: len(s), p50: percentile(s, 500), tailP: p, tail: percentile(s, p)}
}

// median is the nearest-rank median (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return summarize(xs).p50
}

// pctName renders a percentile in tenths as "p99", "p99.9".
func pctName(p int) string {
	if p%10 == 0 {
		return fmt.Sprintf("p%d", p/10)
	}
	return fmt.Sprintf("p%d.%d", p/10, p%10)
}
