// Package metrics computes the evaluation statistics used across the
// experiments: per-flow delay distributions against the GPS reference,
// Jain's fairness index over throughput shares, service-order inversion
// counts (for the binning/TCQ accuracy comparison), and summary
// statistics helpers.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"wfqsort/internal/membus"
	"wfqsort/internal/schedulers"
)

// DelayStats summarizes a delay sample.
type DelayStats struct {
	Count int
	Mean  float64
	Max   float64
	P99   float64
}

// Summarize computes delay statistics over a sample.
func Summarize(delays []float64) DelayStats {
	if len(delays) == 0 {
		return DelayStats{}
	}
	s := make([]float64, len(delays))
	copy(s, delays)
	sort.Float64s(s)
	sum := 0.0
	for _, d := range s {
		sum += d
	}
	idx := (len(s) * 99) / 100
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return DelayStats{
		Count: len(s),
		Mean:  sum / float64(len(s)),
		Max:   s[len(s)-1],
		P99:   s[idx],
	}
}

// QueueingDelays returns each packet's queueing+transmission delay
// (finish − arrival) grouped per flow.
func QueueingDelays(deps []schedulers.Departure, flows int) ([][]float64, error) {
	out := make([][]float64, flows)
	for _, d := range deps {
		if d.Packet.Flow < 0 || d.Packet.Flow >= flows {
			return nil, fmt.Errorf("metrics: flow %d out of range [0,%d)", d.Packet.Flow, flows)
		}
		out[d.Packet.Flow] = append(out[d.Packet.Flow], d.Finish-d.Packet.Arrival)
	}
	return out, nil
}

// GPSRelativeDelays returns finish(scheduler) − finish(GPS) per packet,
// grouped per flow — the quantity WFQ bounds by one maximum packet time
// and the round-robin family does not.
func GPSRelativeDelays(deps []schedulers.Departure, gpsFinish []float64, flows int) ([][]float64, error) {
	out := make([][]float64, flows)
	for _, d := range deps {
		if d.Packet.Flow < 0 || d.Packet.Flow >= flows {
			return nil, fmt.Errorf("metrics: flow %d out of range [0,%d)", d.Packet.Flow, flows)
		}
		if d.Packet.ID < 0 || d.Packet.ID >= len(gpsFinish) {
			return nil, fmt.Errorf("metrics: packet ID %d outside GPS result (%d)", d.Packet.ID, len(gpsFinish))
		}
		out[d.Packet.Flow] = append(out[d.Packet.Flow], d.Finish-gpsFinish[d.Packet.ID])
	}
	return out, nil
}

// MaxGPSLag returns the largest scheduler-vs-GPS finish gap across all
// packets (the paper's "within one packet transmission time" metric).
func MaxGPSLag(deps []schedulers.Departure, gpsFinish []float64) (float64, error) {
	max := math.Inf(-1)
	for _, d := range deps {
		if d.Packet.ID < 0 || d.Packet.ID >= len(gpsFinish) {
			return 0, fmt.Errorf("metrics: packet ID %d outside GPS result (%d)", d.Packet.ID, len(gpsFinish))
		}
		if lag := d.Finish - gpsFinish[d.Packet.ID]; lag > max {
			max = lag
		}
	}
	if math.IsInf(max, -1) {
		return 0, nil
	}
	return max, nil
}

// ThroughputShares returns each flow's share of bits served within the
// window [0, horizon] (bits on the wire by then).
func ThroughputShares(deps []schedulers.Departure, flows int, horizon float64) ([]float64, error) {
	bits := make([]float64, flows)
	total := 0.0
	for _, d := range deps {
		if d.Packet.Flow < 0 || d.Packet.Flow >= flows {
			return nil, fmt.Errorf("metrics: flow %d out of range [0,%d)", d.Packet.Flow, flows)
		}
		if d.Finish > horizon {
			continue
		}
		bits[d.Packet.Flow] += d.Packet.Bits()
		total += d.Packet.Bits()
	}
	if total == 0 {
		return bits, nil
	}
	for f := range bits {
		bits[f] /= total
	}
	return bits, nil
}

// JainIndex computes Jain's fairness index over normalized allocations
// x_i/w_i: 1.0 is perfectly weighted-fair, 1/n is maximally unfair.
func JainIndex(alloc, weights []float64) (float64, error) {
	if len(alloc) != len(weights) || len(alloc) == 0 {
		return 0, fmt.Errorf("metrics: jain: %d allocations vs %d weights", len(alloc), len(weights))
	}
	sum, sumSq := 0.0, 0.0
	for i := range alloc {
		if weights[i] <= 0 {
			return 0, fmt.Errorf("metrics: jain: weight %d is %v", i, weights[i])
		}
		x := alloc[i] / weights[i]
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0, nil
	}
	n := float64(len(alloc))
	return sum * sum / (n * sumSq), nil
}

// Histogram is a fixed-bin histogram over [Min, Max); out-of-range
// samples clamp to the edge bins.
type Histogram struct {
	Min, Max float64
	Counts   []int
	total    int
}

// NewHistogram builds a histogram with bins equal-width buckets.
func NewHistogram(min, max float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("metrics: bins %d must be positive", bins)
	}
	if max <= min {
		return nil, fmt.Errorf("metrics: range [%v,%v) is empty", min, max)
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}, nil
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	idx := int((v - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the sample count.
func (h *Histogram) Total() int { return h.total }

// Render draws the histogram as fixed-width ASCII rows, one per bin,
// scaled so the fullest bin spans width characters.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	peak := 0
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	binWidth := (h.Max - h.Min) / float64(len(h.Counts))
	for i, c := range h.Counts {
		bar := 0
		if peak > 0 {
			bar = c * width / peak
		}
		fmt.Fprintf(&b, "%10.4g │%-*s %d\n", h.Min+float64(i)*binWidth, width, strings.Repeat("█", bar), c)
	}
	return b.String()
}

// LaneStats summarizes how evenly work spreads over the lanes of a
// sharded sorter: occupancy (or any per-lane counter) mean/max and the
// imbalance ratio max/mean. Imbalance 1.0 means perfectly balanced;
// the hardware wall clock of a lane-parallel batch degrades linearly
// with it (the busiest lane is the batch's critical path).
type LaneStats struct {
	Lanes     int
	Total     float64
	Mean      float64
	Min       float64
	Max       float64
	Imbalance float64 // Max/Mean; 1.0 = balanced, defined 0 when Mean is 0
}

// LaneOccupancy computes balance gauges over per-lane entry counts
// (e.g. ShardedSorter.LaneLens).
func LaneOccupancy(lens []int) LaneStats {
	vals := make([]float64, len(lens))
	for i, v := range lens {
		vals[i] = float64(v)
	}
	return laneGauges(vals)
}

// LaneLoad computes balance gauges over per-lane operation counters
// (e.g. the LaneInserts column of a sharded Stats).
func LaneLoad(counts []uint64) LaneStats {
	vals := make([]float64, len(counts))
	for i, v := range counts {
		vals[i] = float64(v)
	}
	return laneGauges(vals)
}

func laneGauges(vals []float64) LaneStats {
	s := LaneStats{Lanes: len(vals)}
	if len(vals) == 0 {
		return s
	}
	s.Min = math.Inf(1)
	for _, v := range vals {
		s.Total += v
		if v > s.Max {
			s.Max = v
		}
		if v < s.Min {
			s.Min = v
		}
	}
	s.Mean = s.Total / float64(len(vals))
	if s.Mean > 0 {
		s.Imbalance = s.Max / s.Mean
	} else {
		s.Min = 0
	}
	return s
}

// BankLoad computes balance gauges over the per-bank access counts
// (reads+writes) of one fabric region (membus.Region.BankStats). A high
// imbalance means the banking function is not spreading the address
// stream: the hot bank's port becomes the region's serial bottleneck.
func BankLoad(banks []membus.BankStats) LaneStats {
	vals := make([]float64, len(banks))
	for i, b := range banks {
		vals[i] = float64(b.Reads + b.Writes)
	}
	return laneGauges(vals)
}

// BankBusy computes balance gauges over per-bank busy cycles (port
// occupancy). Unlike BankLoad this weights accesses by their latency,
// so it is the right gauge when banks mix technologies or word widths.
func BankBusy(banks []membus.BankStats) LaneStats {
	vals := make([]float64, len(banks))
	for i, b := range banks {
		vals[i] = float64(b.BusyCycles)
	}
	return laneGauges(vals)
}

// PortPressure summarizes one fabric region's arbiter behavior: how
// much of its traffic collided on a bank port and how many cycles the
// collisions cost relative to useful occupancy.
type PortPressure struct {
	Region       string
	Accesses     uint64  // reads + writes
	StallCycles  uint64  // arbiter wait cycles
	Conflicts    uint64  // accesses that stalled at all
	StallFrac    float64 // StallCycles / (Cycles + StallCycles); 0 when idle
	ConflictRate float64 // Conflicts / Accesses; 0 when idle
}

// RegionPressure derives the pressure gauges from a region's Stats.
func RegionPressure(name string, s membus.Stats) PortPressure {
	p := PortPressure{
		Region:      name,
		Accesses:    s.Reads + s.Writes,
		StallCycles: s.StallCycles,
		Conflicts:   s.Conflicts,
	}
	if total := s.Cycles + s.StallCycles; total > 0 {
		p.StallFrac = float64(s.StallCycles) / float64(total)
	}
	if p.Accesses > 0 {
		p.ConflictRate = float64(s.Conflicts) / float64(p.Accesses)
	}
	return p
}

// FabricPressure appends RegionPressure for every region of a fabric to
// dst, in the fabric's deterministic region order, and returns the
// extended slice. A caller that refreshes a gauge set periodically
// passes last time's slice cut to dst[:0] and allocates nothing.
func FabricPressure(dst []PortPressure, fab *membus.Fabric) []PortPressure {
	for i, n := 0, fab.NumRegions(); i < n; i++ {
		r := fab.RegionAt(i)
		dst = append(dst, RegionPressure(r.Name(), r.StatsSnapshot()))
	}
	return dst
}

// Inversions counts adjacent-pair service-order violations: the number of
// consecutive departure pairs whose keys are out of order. Used to
// quantify the sorting inaccuracy of the binning/TCQ approximations
// (paper §II-B: binning "aggregates values together in groups and is
// inherently inaccurate").
func Inversions(keys []float64) int {
	count := 0
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			count++
		}
	}
	return count
}

// TotalInversions counts all out-of-order pairs (O(n log n) merge count).
func TotalInversions(keys []float64) int64 {
	buf := make([]float64, len(keys))
	work := make([]float64, len(keys))
	copy(work, keys)
	return mergeCount(work, buf)
}

func mergeCount(a, buf []float64) int64 {
	n := len(a)
	if n < 2 {
		return 0
	}
	mid := n / 2
	count := mergeCount(a[:mid], buf[:mid]) + mergeCount(a[mid:], buf[mid:])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if a[i] <= a[j] {
			buf[k] = a[i]
			i++
		} else {
			count += int64(mid - i)
			buf[k] = a[j]
			j++
		}
		k++
	}
	copy(buf[k:], a[i:mid])
	copy(buf[k+mid-i:], a[j:n])
	copy(a, buf[:n])
	return count
}
