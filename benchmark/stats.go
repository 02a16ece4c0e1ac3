package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
)

// median of xs; 0 for an empty slice. xs is not modified.
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

// tail reports the highest percentile that still has at least ten samples
// beyond it, and the value there: with n samples that is the (n-10)/n
// quantile, the largest value with ten larger ones above it. ok is false
// below 20 samples, where such a percentile would sit under the median.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return 100 * float64(n-10) / float64(n), s[n-11], true
}

// quartiles returns the first and third quartile by the exclusive method,
// which is what Python's statistics.quantiles(xs, n=4) computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(math.Floor(pos))
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// spread is the run-to-run spread of a metric as a share of its median: the
// interquartile distance from four runs up, the full range below that. A
// single run has no spread.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	if len(xs) >= 4 {
		q1, q3 := quartiles(xs)
		return math.Abs((q3 - q1) / m)
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return math.Abs((hi - lo) / m)
}

// geomean of positive values; 0 when empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// harmonicMean of positive values; 0 when empty.
func harmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// outputDigest is the workload digest: SHA-256 over the sorted per-op
// digests, so it does not depend on which client served which op first.
func outputDigest(perOp []string) string {
	s := append([]string(nil), perOp...)
	sort.Strings(s)
	h := sha256.New()
	for _, d := range s {
		h.Write([]byte(d))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
