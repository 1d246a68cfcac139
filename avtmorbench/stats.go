package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is the number of samples the percentile rule requires
// beyond a reported percentile.
const minTail = 10

// tailRank returns the quantile actually reported for a requested
// percentile p over n samples: p itself when at least minTail samples
// lie beyond its nearest rank, else the highest quantile that keeps
// minTail beyond, never below the median. The reported quantile is
// part of each result's provenance.
func tailRank(n int, p float64) float64 {
	if n <= 0 {
		return p
	}
	if n-int(math.Ceil(p*float64(n))) >= minTail {
		return p
	}
	q := float64(n-minTail) / float64(n)
	if q < 0.5 {
		return 0.5
	}
	return q
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the percentile p of xs under the percentile rule.
func tail(xs []float64, p float64) float64 { return quantile(xs, tailRank(len(xs), p)) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share returns a/b, 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// allocMB returns the cumulative heap bytes allocated so far, in MB.
func allocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}
