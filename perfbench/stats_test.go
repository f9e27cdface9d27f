package main

import (
	"math"
	"net/http"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	ladder := []float64{50, 75, 90, 95, 99, 99.9}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10, 0},       // even the median leaves only 5 beyond
		{20, 50},      // p50 leaves 10; p75 leaves 5
		{40, 75},      // p75 leaves 10
		{100, 90},     // p90 leaves 10; p95 leaves 5
		{1000, 99},    // p99 leaves 10; p99.9 leaves 1
		{10000, 99.9}, // p99.9 leaves 10
	} {
		if got := tailPercentile(tc.n, ladder); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.want > 0 {
			if _, beyond := rank(tc.n, tc.want); beyond < minTailSamples {
				t.Errorf("n=%d p%v leaves %d beyond", tc.n, tc.want, beyond)
			}
		}
	}
}

func TestTailReportsSamplesBeyondAndRefusesTooFew(t *testing.T) {
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	v, beyond, err := tail(sorted, 95)
	if err != nil || v != 190 || beyond != 10 {
		t.Fatalf("tail(1..200, 95) = %v, %d, %v; want 190, 10, nil", v, beyond, err)
	}
	if _, beyond, err := tail(sorted, 99); err == nil || beyond != 2 {
		t.Fatalf("tail(1..200, 99) = beyond %d, err %v; want 2 and an error", beyond, err)
	}
}

func TestFailureCountsAsDeadlineMiss(t *testing.T) {
	const timeout = 100 * time.Millisecond
	for _, tc := range []struct {
		name string
		o    outcome
		want bool
	}{
		{"fast 2xx", outcome{http.StatusOK, 10 * time.Millisecond, timeout}, false},
		{"2xx within grace", outcome{http.StatusOK, timeout + grace, timeout}, false},
		{"late 2xx", outcome{http.StatusOK, timeout + grace + time.Millisecond, timeout}, true},
		{"fast 400", outcome{http.StatusBadRequest, time.Millisecond, timeout}, true},
		{"fast 503", outcome{http.StatusServiceUnavailable, time.Millisecond, timeout}, true},
		{"transport error", outcome{0, time.Millisecond, timeout}, true},
	} {
		if got := tc.o.missed(grace); got != tc.want {
			t.Errorf("%s: missed = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestGeoMeanCostRatio(t *testing.T) {
	if got := geoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geoMean(1, 4) = %v, want 2", got)
	}
	if got := geoMean([]float64{2, 0.5, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("geoMean(2, 0.5, 1) = %v, want 1", got)
	}
	if got := geoMean(nil); got != 0 {
		t.Errorf("geoMean() = %v, want 0", got)
	}
}

func TestShareIsOverItemsAttemptedAndNeverZero(t *testing.T) {
	for _, tc := range []struct {
		k, n int
		want float64
	}{
		{49, 98, 0.5},
		{98, 98, 1},
		{1, 1000, 0.001},
		{0, 98, shareFloor},
		{0, 0, shareFloor},
	} {
		if got := share(tc.k, tc.n); got != tc.want {
			t.Errorf("share(%d, %d) = %v, want %v", tc.k, tc.n, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median(4,1,2,3) = %v", got)
	}
}
