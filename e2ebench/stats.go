package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile for
// the percentile to mean anything; with fewer, the helper falls back to
// the highest percentile that still has that many.
const minBeyond = 10

// tail is one percentile read off a sample set: the value, the
// percentile actually used (lower than the one asked for when the sample
// set is too small) and the sample count.
type tail struct {
	Value float64
	Pct   float64
	N     int
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, or the highest percentile with at least minBeyond samples
// above it when p has fewer, but never less than the median: a sample
// set too small for a tail percentile reports its median.
func percentile(samples []float64, p float64) tail {
	n := len(samples)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := max(int(math.Ceil(float64(n)*p/100))-1, 0)
	if n-1-i < minBeyond {
		i = max(n-1-minBeyond, (n-1)/2)
	}
	return tail{Value: s[i], Pct: 100 * float64(i+1) / float64(n), N: n}
}

// median is the plain middle value (mean of the two middle values for an
// even count), used to fold repeated whole-run measurements.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// minAcross returns, for every index, the smallest value the runs
// recorded there, skipping NaN (not measured in that run); NaN where no
// run measured it. The runs repeat identical work, and interference from
// other processes on the machine only ever adds time, so the minimum is
// the steadiest estimate of each operation's own cost.
func minAcross(runs [][]float64) []float64 {
	out := make([]float64, len(runs[0]))
	for i := range out {
		out[i] = math.NaN()
		for _, r := range runs {
			if v := r[i]; !math.IsNaN(v) && (math.IsNaN(out[i]) || v < out[i]) {
				out[i] = v
			}
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// memWindow brackets a measured phase with runtime.MemStats reads.
type memWindow struct{ start runtime.MemStats }

func startMem() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// end returns the MB allocated and the GC pause time in ms since start.
func (w *memWindow) end() (allocMB, gcPauseMS float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return float64(now.TotalAlloc-w.start.TotalAlloc) / (1 << 20),
		float64(now.PauseTotalNs-w.start.PauseTotalNs) / 1e6
}
