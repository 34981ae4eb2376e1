// Host-side measurement helpers: process CPU and memory counters and
// the order statistics every workload reports.
//
//wfqlint:ignore-file determinism the benchmark harness measures host wall-clock time by design; seeded inputs and modelled counts stay deterministic and are checked for it
package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the resident-set high-water mark of process pid,
// VmHWM in /proc/<pid>/status. getrusage's ru_maxrss is not used: Linux
// seeds it at exec with the parent's high-water mark, so it reads the go
// tool's memory under `go run` and the benchmark's for the wfqd child.
func peakRSSMB(pid int) (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/%d/status", pid)
}

// meter brackets one measured phase: wall time, process CPU and heap
// allocations between start and stop.
type meter struct {
	t0      time.Time
	cpu0    float64
	mallocs uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t0: time.Now(), cpu0: cpuSeconds(), mallocs: ms.Mallocs}
}

// stop fills the wall, CPU and allocation fields of s.
func (m meter) stop(s *sample) {
	s.wallS = time.Since(m.t0).Seconds()
	s.cpuS = cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs - m.mallocs
}

// median returns the median of v (0 for an empty slice); v is not
// modified.
func median(v []float64) float64 {
	return quantileF(v, 0.5)
}

// quantileF returns the q-quantile of v by linear interpolation between
// order statistics; v is not modified.
func quantileF(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quantilesNs sorts ns in place and returns the requested quantiles
// (nearest rank) in microseconds.
func quantilesNs(ns []int64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(ns) == 0 {
		return out
	}
	slices.Sort(ns)
	for i, q := range qs {
		k := int(q * float64(len(ns)))
		if k >= len(ns) {
			k = len(ns) - 1
		}
		out[i] = float64(ns[k]) / 1e3
	}
	return out
}
