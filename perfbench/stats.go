package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"skinnymine"
)

// quantile is the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q of the samples at or below it. With
// fewer than 100 samples the 0.99 quantile is therefore the maximum.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// patternsDigest is the SHA-256 of the result's patterns as compact
// JSON — the bytes Result.WriteJSON and the daemon emit for
// "patterns", without the stats (whose timings vary run to run).
func patternsDigest(res *skinnymine.Result) (string, error) {
	b, err := json.Marshal(res.ToJSON().Patterns)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:16])
}

// compactDigest digests raw JSON after compacting it, so indentation
// (a batch response re-indents its nested results) does not matter.
func compactDigest(raw []byte) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return "", err
	}
	return digest(buf.Bytes()), nil
}

// allocSince returns the MB allocated and the allocation count since
// before.
func allocSince(before *runtime.MemStats) (mb float64, allocs uint64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return float64(now.TotalAlloc-before.TotalAlloc) / (1 << 20), now.Mallocs - before.Mallocs
}

func memNow() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

// peakRSSMB reads VmHWM, the peak resident set, of a process ("self"
// or a pid) from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
