package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for the figure to mean anything.
const minTailSamples = 10

// rank returns the nearest-rank index of percentile p (0 < p < 100) in a
// sorted sample of n values and how many samples lie beyond it.
func rank(n int, p float64) (idx, beyond int) {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing the rank one sample up.
	idx = int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return idx, n - 1 - idx
}

// tailPercentile picks the highest percentile from ladder (ascending) that
// still leaves at least minTailSamples samples beyond it in a sample of n.
// It returns 0 when even the lowest rung does not.
func tailPercentile(n int, ladder []float64) float64 {
	best := 0.0
	for _, p := range ladder {
		if _, beyond := rank(n, p); beyond >= minTailSamples {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank percentile p of sorted and the
// number of samples beyond it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	idx, beyond := rank(len(sorted), p)
	return sorted[idx], beyond
}

// tail is percentile with the minTailSamples rule enforced: a workload
// fixes its tail percentile in advance, and a run too short to leave ten
// samples beyond it is an error rather than a noisy figure.
func tail(sorted []float64, p float64) (value float64, beyond int, err error) {
	value, beyond = percentile(sorted, p)
	if beyond < minTailSamples {
		return 0, beyond, fmt.Errorf("p%v of %d samples leaves %d beyond it, need %d", p, len(sorted), beyond, minTailSamples)
	}
	return value, beyond, nil
}

// median of an unsorted sample (the mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geoMean is the geometric mean of positive ratios (0 for an empty set).
func geoMean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range ratios {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios)))
}

// shareFloor is what share reports for a count of zero: far below any
// share a run can measure (runs attempt fewer than 1e6 items), and never 0,
// so a relative bound on a share stays defined.
const shareFloor = 1e-6

// share is the fraction k/n, floored at shareFloor.
func share(k, n int) float64 {
	if n == 0 {
		return shareFloor
	}
	return math.Max(float64(k)/float64(n), shareFloor)
}

// outcome is what the benchmark saw for one item.
type outcome struct {
	status  int // HTTP status of the item; 0 for a transport error
	latency time.Duration
	timeout time.Duration
}

func (o outcome) ok() bool { return o.status >= 200 && o.status < 300 }

// missed reports whether an item missed its deadline: it was not answered
// 2xx within its timeout plus grace. A failure is a miss whatever its
// latency.
func (o outcome) missed(grace time.Duration) bool {
	return !o.ok() || o.latency > o.timeout+grace
}
