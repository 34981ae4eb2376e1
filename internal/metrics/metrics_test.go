package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"wfqsort/internal/membus"
	"wfqsort/internal/packet"
	"wfqsort/internal/schedulers"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	s = Summarize([]float64{3, 1, 2})
	if s.Count != 3 || !approx(s.Mean, 2, 1e-12) || s.Max != 3 {
		t.Fatalf("summary = %+v", s)
	}
	// P99 on a known 100-element ramp.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	s = Summarize(vals)
	if s.P99 != 99 {
		t.Fatalf("P99 = %v, want 99", s.P99)
	}
}

func deps() []schedulers.Departure {
	return []schedulers.Departure{
		{Packet: packet.Packet{ID: 0, Flow: 0, Size: 125, Arrival: 0}, Start: 0, Finish: 1},
		{Packet: packet.Packet{ID: 1, Flow: 1, Size: 250, Arrival: 0.5}, Start: 1, Finish: 3},
		{Packet: packet.Packet{ID: 2, Flow: 0, Size: 125, Arrival: 2}, Start: 3, Finish: 4},
	}
}

func TestQueueingDelays(t *testing.T) {
	d, err := QueueingDelays(deps(), 2)
	if err != nil {
		t.Fatalf("QueueingDelays: %v", err)
	}
	if len(d[0]) != 2 || !approx(d[0][0], 1, 1e-12) || !approx(d[0][1], 2, 1e-12) {
		t.Fatalf("flow 0 delays = %v", d[0])
	}
	if len(d[1]) != 1 || !approx(d[1][0], 2.5, 1e-12) {
		t.Fatalf("flow 1 delays = %v", d[1])
	}
	if _, err := QueueingDelays(deps(), 1); err == nil {
		t.Fatal("out-of-range flow accepted")
	}
}

func TestGPSRelativeDelaysAndMaxLag(t *testing.T) {
	gpsFin := []float64{0.8, 2.9, 4.2}
	rel, err := GPSRelativeDelays(deps(), gpsFin, 2)
	if err != nil {
		t.Fatalf("GPSRelativeDelays: %v", err)
	}
	if !approx(rel[0][0], 0.2, 1e-12) || !approx(rel[1][0], 0.1, 1e-12) || !approx(rel[0][1], -0.2, 1e-12) {
		t.Fatalf("relative delays = %v", rel)
	}
	lag, err := MaxGPSLag(deps(), gpsFin)
	if err != nil || !approx(lag, 0.2, 1e-12) {
		t.Fatalf("MaxGPSLag = %v, %v; want 0.2", lag, err)
	}
	if _, err := GPSRelativeDelays(deps(), []float64{1}, 2); err == nil {
		t.Fatal("short GPS result accepted")
	}
	if _, err := MaxGPSLag(deps(), []float64{1}); err == nil {
		t.Fatal("short GPS result accepted in MaxGPSLag")
	}
	lag, err = MaxGPSLag(nil, nil)
	if err != nil || lag != 0 {
		t.Fatalf("empty MaxGPSLag = %v, %v", lag, err)
	}
}

func TestThroughputShares(t *testing.T) {
	shares, err := ThroughputShares(deps(), 2, 10)
	if err != nil {
		t.Fatalf("ThroughputShares: %v", err)
	}
	// Flow 0: 2×125 B, flow 1: 250 B → equal shares.
	if !approx(shares[0], 0.5, 1e-12) || !approx(shares[1], 0.5, 1e-12) {
		t.Fatalf("shares = %v", shares)
	}
	// Horizon before the last departure excludes it.
	shares, err = ThroughputShares(deps(), 2, 3.5)
	if err != nil {
		t.Fatalf("ThroughputShares: %v", err)
	}
	if !approx(shares[0], 1.0/3, 1e-9) || !approx(shares[1], 2.0/3, 1e-9) {
		t.Fatalf("windowed shares = %v", shares)
	}
	if _, err := ThroughputShares(deps(), 1, 10); err == nil {
		t.Fatal("out-of-range flow accepted")
	}
	empty, err := ThroughputShares(nil, 2, 10)
	if err != nil || empty[0] != 0 {
		t.Fatalf("empty shares = %v, %v", empty, err)
	}
}

func TestJainIndex(t *testing.T) {
	// Perfectly weighted-fair: alloc ∝ weights.
	j, err := JainIndex([]float64{0.6, 0.3, 0.1}, []float64{6, 3, 1})
	if err != nil || !approx(j, 1, 1e-12) {
		t.Fatalf("fair Jain = %v, %v; want 1", j, err)
	}
	// Maximally unfair: all to one of n flows → 1/n.
	j, err = JainIndex([]float64{1, 0, 0, 0}, []float64{1, 1, 1, 1})
	if err != nil || !approx(j, 0.25, 1e-12) {
		t.Fatalf("unfair Jain = %v, %v; want 0.25", j, err)
	}
	if _, err := JainIndex([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := JainIndex([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero weight accepted")
	}
	j, err = JainIndex([]float64{0, 0}, []float64{1, 1})
	if err != nil || j != 0 {
		t.Fatalf("all-zero Jain = %v, %v", j, err)
	}
}

func TestJainBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		alloc := make([]float64, len(raw))
		weights := make([]float64, len(raw))
		for i, r := range raw {
			alloc[i] = float64(r)
			weights[i] = 1
		}
		j, err := JainIndex(alloc, weights)
		if err != nil {
			return false
		}
		n := float64(len(raw))
		return j >= -1e-12 && j <= 1+1e-12 && (j == 0 || j >= 1/n-1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Error("empty range accepted")
	}
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for _, v := range []float64{0, 1.9, 2, 5, 9.9, -3, 42} {
		h.Add(v)
	}
	want := []int{3, 1, 1, 0, 2} // -3 clamps low, 42 clamps high
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bin %d = %d, want %d (counts %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d", h.Total())
	}
	out := h.Render(20)
	if !strings.Contains(out, "█") || !strings.Contains(out, "│") {
		t.Fatalf("render missing bars:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 5 {
		t.Fatalf("render has %d lines, want 5", lines)
	}
	// Degenerate width defaults.
	if empty := (&Histogram{Min: 0, Max: 1, Counts: make([]int, 2)}).Render(0); empty == "" {
		t.Fatal("zero-width render empty")
	}
}

func TestInversions(t *testing.T) {
	if got := Inversions([]float64{1, 2, 3}); got != 0 {
		t.Fatalf("sorted inversions = %d", got)
	}
	if got := Inversions([]float64{3, 1, 2, 1}); got != 2 {
		t.Fatalf("inversions = %d, want 2", got)
	}
	if got := Inversions(nil); got != 0 {
		t.Fatalf("empty inversions = %d", got)
	}
}

func TestTotalInversions(t *testing.T) {
	if got := TotalInversions([]float64{3, 2, 1}); got != 3 {
		t.Fatalf("TotalInversions(3,2,1) = %d, want 3", got)
	}
	if got := TotalInversions([]float64{1, 2, 3}); got != 0 {
		t.Fatalf("sorted = %d", got)
	}
	// Cross-check against the quadratic definition on random input.
	rng := rand.New(rand.NewSource(4))
	keys := make([]float64, 200)
	for i := range keys {
		keys[i] = float64(rng.Intn(50))
	}
	want := int64(0)
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[i] > keys[j] {
				want++
			}
		}
	}
	if got := TotalInversions(keys); got != want {
		t.Fatalf("TotalInversions = %d, want %d", got, want)
	}
	// TotalInversions must not mutate its input... it operates on a copy.
	orig := []float64{5, 1, 4}
	_ = TotalInversions(orig)
	if !sort.Float64sAreSorted(orig) {
		// It currently sorts a copy; original must remain untouched.
		if orig[0] != 5 || orig[1] != 1 || orig[2] != 4 {
			t.Fatalf("input mutated: %v", orig)
		}
	}
}

func TestLaneGauges(t *testing.T) {
	if s := LaneOccupancy(nil); s.Lanes != 0 || s.Imbalance != 0 {
		t.Fatalf("empty occupancy: %+v", s)
	}
	s := LaneOccupancy([]int{4, 4, 4, 4})
	if s.Lanes != 4 || !approx(s.Imbalance, 1.0, 1e-12) || !approx(s.Mean, 4, 1e-12) {
		t.Fatalf("balanced occupancy: %+v", s)
	}
	s = LaneOccupancy([]int{8, 0, 0, 0})
	if !approx(s.Imbalance, 4.0, 1e-12) || s.Max != 8 || s.Min != 0 || s.Total != 8 {
		t.Fatalf("fully skewed occupancy: %+v", s)
	}
	s = LaneLoad([]uint64{10, 20, 30, 40})
	if !approx(s.Mean, 25, 1e-12) || !approx(s.Imbalance, 40.0/25, 1e-12) {
		t.Fatalf("lane load: %+v", s)
	}
	if s := LaneLoad([]uint64{0, 0}); s.Imbalance != 0 || s.Min != 0 {
		t.Fatalf("all-zero load must report zeroed gauges: %+v", s)
	}
}

func TestBankAndPortGauges(t *testing.T) {
	fab := membus.New(nil)
	reg, err := fab.Provision(membus.RegionConfig{Name: "gauge-mem", Depth: 8, WordBits: 16, Banks: 2})
	if err != nil {
		t.Fatalf("provision: %v", err)
	}
	port := reg.Port()
	// Addresses 0,2,4 land on bank 0; address 1 on bank 1: load 3 vs 1.
	for _, addr := range []int{0, 2, 4, 1} {
		if err := port.Write(addr, uint64(addr)); err != nil {
			t.Fatalf("write %d: %v", addr, err)
		}
	}
	load := BankLoad(reg.BankStats())
	if load.Lanes != 2 || load.Total != 4 || load.Max != 3 {
		t.Fatalf("bank load: %+v", load)
	}
	busy := BankBusy(reg.BankStats())
	if busy.Lanes != 2 || busy.Total == 0 {
		t.Fatalf("bank busy: %+v", busy)
	}
	pp := RegionPressure(reg.Name(), reg.StatsSnapshot())
	if pp.Region != "gauge-mem" || pp.Accesses != 4 {
		t.Fatalf("region pressure: %+v", pp)
	}
	// Sequential (non-windowed) accesses never collide on a port.
	if pp.Conflicts != 0 || pp.StallFrac != 0 || pp.ConflictRate != 0 {
		t.Fatalf("sequential traffic must be stall-free: %+v", pp)
	}
	all := FabricPressure(nil, fab)
	if len(all) != 1 || all[0].Region != "gauge-mem" {
		t.Fatalf("fabric pressure: %+v", all)
	}
	if s := BankLoad(nil); s.Lanes != 0 || s.Imbalance != 0 {
		t.Fatalf("empty bank load: %+v", s)
	}
}
