package scheduler

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"wfqsort/internal/aqm"
	"wfqsort/internal/gps"
	"wfqsort/internal/packet"
	"wfqsort/internal/rank"
	"wfqsort/internal/schedulers"
	"wfqsort/internal/taglist"
	"wfqsort/internal/traffic"
	"wfqsort/internal/wfq"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{CapacityBps: 1e6}); err == nil {
		t.Error("no sessions accepted")
	}
	if _, err := New(Config{Weights: []float64{1}}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(Config{Weights: []float64{1}, CapacityBps: 1e6, ClockHz: -1}); err == nil {
		t.Error("negative clock accepted")
	}
}

func TestThroughputModel(t *testing.T) {
	s, err := New(Config{Weights: []float64{1}, CapacityBps: 40e9})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Paper §IV: 143.2 MHz / 4 cycles = 35.8 Mpps.
	pps := s.SupportedPPS()
	if math.Abs(pps-35.8e6) > 0.1e6 {
		t.Fatalf("SupportedPPS = %v, want 35.8e6", pps)
	}
	// At the paper's conservative 140-byte average: ≥ 40 Gb/s.
	rate := s.SupportedLineRate(140)
	if rate < 40e9 {
		t.Fatalf("SupportedLineRate(140B) = %v, want ≥ 40e9", rate)
	}
}

func mix(t *testing.T, count int) []packet.Packet {
	t.Helper()
	voip, err := traffic.NewCBR(0, 2e5, 80, count, 0)
	if err != nil {
		t.Fatalf("NewCBR: %v", err)
	}
	video, err := traffic.NewCBR(1, 4e5, 1000, count/2, 0.0001)
	if err != nil {
		t.Fatalf("NewCBR: %v", err)
	}
	data, err := traffic.NewPoisson(2, 100, traffic.IMIX{}, count, 7)
	if err != nil {
		t.Fatalf("NewPoisson: %v", err)
	}
	pkts, err := traffic.Merge(voip, video, data)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	return pkts
}

func TestRunServesEverythingInTagOrder(t *testing.T) {
	pkts := mix(t, 300)
	s, err := New(Config{
		Weights:     []float64{0.3, 0.5, 0.2},
		CapacityBps: 1e6,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run(pkts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Departures) != len(pkts) {
		t.Fatalf("served %d of %d packets", len(res.Departures), len(pkts))
	}
	// The clamp-to-minimum rule (see scheduler.go) displaces an
	// undercutting packet by at most a few service slots; any adjacent
	// out-of-order pair must therefore be small in tag distance — under
	// one maximum single-packet tag increment.
	// Clamp distance is bounded by m−V plus one packet's tag increment:
	// allow two maximum steps.
	maxStep := 2 * 1500 * 8 / (0.2 * 1e6) // 2·Lmax/(φmin·C)
	for i := 1; i < len(res.Departures); i++ {
		a := res.ExactTags[res.Departures[i-1].Packet.ID]
		b := res.ExactTags[res.Departures[i].Packet.ID]
		if b < a && a-b > maxStep {
			t.Fatalf("departure %d inverts by %v tag units (max step %v)", i, a-b, maxStep)
		}
	}
	// No packet lost or duplicated.
	seen := make([]bool, len(pkts))
	for _, d := range res.Departures {
		if seen[d.Packet.ID] {
			t.Fatalf("packet %d served twice", d.Packet.ID)
		}
		seen[d.Packet.ID] = true
	}
	if res.PeakBuffer <= 0 {
		t.Fatal("peak buffer not tracked")
	}
}

// TestMatchesExactWFQDiscipline compares the full hardware datapath's
// departure order against the exact floating-point WFQ discipline: at
// fine granularity they must agree almost everywhere.
func TestMatchesExactWFQDiscipline(t *testing.T) {
	pkts := mix(t, 200)
	weights := []float64{0.3, 0.5, 0.2}
	const capacity = 1e6
	s, err := New(Config{Weights: weights, CapacityBps: capacity})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run(pkts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	w, err := schedulers.NewWFQ(weights, capacity)
	if err != nil {
		t.Fatalf("NewWFQ: %v", err)
	}
	ref, err := schedulers.Run(pkts, w, capacity)
	if err != nil {
		t.Fatalf("schedulers.Run: %v", err)
	}
	// The hardware path may displace a packet by a few slots (duplicate
	// ties at the quantized minimum); large displacements would mean a
	// structural ordering bug.
	refPos := make(map[int]int, len(ref))
	for i, d := range ref {
		refPos[d.Packet.ID] = i
	}
	worst := 0
	for i, d := range res.Departures {
		disp := i - refPos[d.Packet.ID]
		if disp < 0 {
			disp = -disp
		}
		if disp > worst {
			worst = disp
		}
	}
	if worst > 16 {
		t.Fatalf("worst service-slot displacement vs exact WFQ = %d, want ≤16", worst)
	}
}

// TestDelayBoundThroughHardware checks the end-to-end QoS property on the
// full datapath: departures stay within one maximum packet time of the
// GPS reference, plus the quantization slack of one tag unit per packet.
func TestDelayBoundThroughHardware(t *testing.T) {
	pkts := mix(t, 200)
	weights := []float64{0.3, 0.5, 0.2}
	const capacity = 1e6
	s, err := New(Config{Weights: weights, CapacityBps: capacity})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run(pkts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ref, err := gps.Simulate(pkts, weights, capacity)
	if err != nil {
		t.Fatalf("gps.Simulate: %v", err)
	}
	bound := 1500*8/capacity + wfq.DelayBound(1500*8, capacity) // Lmax/C + slack
	worst := 0.0
	for _, d := range res.Departures {
		if lag := d.Finish - ref.Finish[d.Packet.ID]; lag > worst {
			worst = lag
		}
	}
	if worst > bound {
		t.Fatalf("hardware datapath GPS lag %v exceeds %v", worst, bound)
	}
}

// TestLongRunWraparound pushes enough traffic through a coarse-granularity
// configuration that the 12-bit tag space wraps several times, exercising
// section reclamation end to end.
func TestLongRunWraparound(t *testing.T) {
	const capacity = 1e6
	src0, err := traffic.NewCBR(0, 6e5, 500, 3000, 0)
	if err != nil {
		t.Fatalf("NewCBR: %v", err)
	}
	src1, err := traffic.NewCBR(1, 3e5, 250, 3000, 0.000013)
	if err != nil {
		t.Fatalf("NewCBR: %v", err)
	}
	pkts, err := traffic.Merge(src0, src1)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	s, err := New(Config{
		Weights:     []float64{0.6, 0.4},
		CapacityBps: capacity,
		// Coarse granularity: the whole 12-bit space covers ~0.04 s of
		// virtual time, forcing multiple wraps over this multi-second
		// trace.
		Granularity: 1e-5,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run(pkts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Departures) != len(pkts) {
		t.Fatalf("served %d of %d", len(res.Departures), len(pkts))
	}
	if res.SectionsReclaimed < 32 {
		t.Fatalf("only %d sections reclaimed — tag space never wrapped", res.SectionsReclaimed)
	}
	// Even across wraps, any out-of-order adjacent pair must stay within
	// one maximum single-packet tag increment (clamp displacement), not
	// a wraparound-sized jump.
	maxStep := 2 * 4000 / (0.4 * 1e6) // 2·Lmax_bits/(φmin·C)
	for i := 1; i < len(res.Departures); i++ {
		a := res.ExactTags[res.Departures[i-1].Packet.ID]
		b := res.ExactTags[res.Departures[i].Packet.ID]
		if b < a && a-b > maxStep {
			t.Fatalf("departure %d inverts by %v tag units across wrap (max step %v)", i, a-b, maxStep)
		}
	}
}

// TestWeightedSharesThroughHardware: under sustained backlog the output
// bandwidth split must follow the configured weights.
func TestWeightedSharesThroughHardware(t *testing.T) {
	const capacity = 1e6
	heavy, err := traffic.NewCBR(0, 2e6, 500, 800, 0)
	if err != nil {
		t.Fatalf("NewCBR: %v", err)
	}
	light, err := traffic.NewCBR(1, 2e6, 500, 800, 0)
	if err != nil {
		t.Fatalf("NewCBR: %v", err)
	}
	pkts, err := traffic.Merge(heavy, light)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	s, err := New(Config{Weights: []float64{0.75, 0.25}, CapacityBps: capacity})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run(pkts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Measure shares over the contended window (both flows backlogged):
	// the first 60% of departures.
	bits := [2]float64{}
	for _, d := range res.Departures[:len(res.Departures)*6/10] {
		bits[d.Packet.Flow] += d.Packet.Bits()
	}
	ratio := bits[0] / bits[1]
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("bandwidth ratio %v, want ≈3 (weights 0.75:0.25)", ratio)
	}
}

func TestBufferOverflowSurfaces(t *testing.T) {
	burst := make([]packet.Packet, 64)
	for i := range burst {
		burst[i] = packet.Packet{ID: i, Flow: 0, Size: 1500, Arrival: 0}
	}
	s, err := New(Config{
		Weights:        []float64{1},
		CapacityBps:    1e6,
		SorterCapacity: 16,
		BufferSlots:    16,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(burst); err == nil {
		t.Fatal("64-packet burst into 16-slot buffer succeeded")
	}
}

// TestOverloadPolicies: the same overflowing burst is survivable under
// tail-drop and RED, with drops counted and everything admitted served.
func TestOverloadPolicies(t *testing.T) {
	burst := make([]packet.Packet, 200)
	for i := range burst {
		burst[i] = packet.Packet{ID: i, Flow: 0, Size: 1500, Arrival: float64(i) * 1e-5}
	}
	for _, policy := range []FullPolicy{FullTailDrop, FullRED} {
		s, err := New(Config{
			Weights:        []float64{1},
			CapacityBps:    1e6,
			SorterCapacity: 32,
			BufferSlots:    32,
			OnFull:         policy,
		})
		if err != nil {
			t.Fatalf("New(%d): %v", policy, err)
		}
		res, err := s.Run(burst)
		if err != nil {
			t.Fatalf("Run(%d): %v", policy, err)
		}
		if res.Dropped == 0 {
			t.Fatalf("policy %d: no drops under 15× overload", policy)
		}
		if len(res.Departures)+res.Dropped != len(burst) {
			t.Fatalf("policy %d: %d served + %d dropped ≠ %d offered",
				policy, len(res.Departures), res.Dropped, len(burst))
		}
	}
	// RED with a fast EWMA (responsive to this sudden burst) drops
	// before the buffer fills; tail drop only at the wall.
	mk := func(policy FullPolicy) int {
		cfg := Config{
			Weights: []float64{1}, CapacityBps: 1e6,
			SorterCapacity: 64, BufferSlots: 64, OnFull: policy,
		}
		if policy == FullRED {
			cfg.RED = aqm.REDConfig{MinThreshold: 16, MaxThreshold: 48, MaxP: 0.1, Weight: 0.2}
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := s.Run(burst)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.PeakBuffer
	}
	if redPeak, tailPeak := mk(FullRED), mk(FullTailDrop); redPeak >= tailPeak {
		t.Fatalf("RED peak buffer %d not below tail-drop peak %d (early detection)", redPeak, tailPeak)
	}
	if _, err := New(Config{Weights: []float64{1}, CapacityBps: 1e6, OnFull: FullPolicy(9)}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestGranularityDefaultDerivation(t *testing.T) {
	s, err := New(Config{
		Weights:        []float64{0.5, 0.5},
		CapacityBps:    1e9,
		SorterCapacity: 1024,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Granularity() <= 0 {
		t.Fatalf("derived granularity %v", s.Granularity())
	}
	// The derived window must hold a full buffer of max packets on the
	// lightest flow: slots × Lmax/(φmin·C) virtual seconds.
	window := 1024 * 1500 * 8 / (0.5 * 1e9)
	if got := s.Granularity() * float64(4096-256); got < window*0.99 {
		t.Fatalf("window coverage %v < required %v", got, window)
	}
}

// TestSCFQAlgorithmPlugsIn reproduces the paper's modularity claim: the
// self-clocked fair queueing tagger drops into the architecture in place
// of the WFQ circuit and still produces weighted-fair, bounded service.
func TestSCFQAlgorithmPlugsIn(t *testing.T) {
	pkts := mix(t, 200)
	weights := []float64{0.3, 0.5, 0.2}
	prog, err := rank.NewSCFQ(weights, 1e6)
	if err != nil {
		t.Fatalf("NewSCFQ: %v", err)
	}
	s, err := New(Config{Weights: weights, CapacityBps: 1e6, Program: prog})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run(pkts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Departures) != len(pkts) {
		t.Fatalf("served %d of %d", len(res.Departures), len(pkts))
	}
	// SCFQ's looser bound: GPS lag within (N_flows)·Lmax/C.
	ref, err := gps.Simulate(pkts, weights, 1e6)
	if err != nil {
		t.Fatalf("gps.Simulate: %v", err)
	}
	bound := 4 * 1500 * 8 / 1e6
	for _, d := range res.Departures {
		if lag := d.Finish - ref.Finish[d.Packet.ID]; lag > bound {
			t.Fatalf("SCFQ lag %v exceeds loose bound %v", lag, bound)
		}
	}
	// A nil Program is exact WFQ.
	def, err := New(Config{Weights: weights, CapacityBps: 1e6})
	if err != nil {
		t.Fatalf("New(default): %v", err)
	}
	if name := def.cfg.Program.Name(); name != "WFQ" {
		t.Errorf("nil Program selected %q, want WFQ", name)
	}
	// A packet the program refuses fails the run, naming the packet.
	bad := []packet.Packet{{ID: 0, Flow: 0, Size: 100}, {ID: 1, Flow: len(weights), Size: 100, Arrival: 1e-3}}
	if _, err := def.Run(bad); err == nil || !strings.Contains(err.Error(), "packet 1") {
		t.Errorf("unknown flow: Run error %v, want one naming packet 1", err)
	}
}

// newFixed builds the Fig. 1 datapath on the fixed-point tag circuit of
// reference [8]. The circuit emits sorter units, so it and the quantizer
// must share one granularity: the one cfg derives by default.
func newFixed(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	def, err := New(cfg)
	if err != nil {
		t.Fatalf("New(default): %v", err)
	}
	cfg.Granularity = def.Granularity()
	cfg.Program, err = rank.NewWFQFixed(cfg.Weights, cfg.CapacityBps, cfg.Granularity)
	if err != nil {
		t.Fatalf("NewWFQFixed: %v", err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(fixed): %v", err)
	}
	return s
}

// TestFixedPointAlgorithmEndToEnd runs the complete Fig. 1 datapath with
// the integer tag computation circuit of reference [8]: every tag the
// sorter sees was produced without floating point, and the service order
// still tracks exact WFQ closely.
func TestFixedPointAlgorithmEndToEnd(t *testing.T) {
	pkts := mix(t, 200)
	weights := []float64{0.3, 0.5, 0.2}
	const capacity = 1e6
	s := newFixed(t, Config{Weights: weights, CapacityBps: capacity})
	res, err := s.Run(pkts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Departures) != len(pkts) {
		t.Fatalf("served %d of %d", len(res.Departures), len(pkts))
	}
	// Positional agreement with the exact float datapath.
	ref, err := New(Config{Weights: weights, CapacityBps: capacity})
	if err != nil {
		t.Fatalf("New(ref): %v", err)
	}
	refRes, err := ref.Run(pkts)
	if err != nil {
		t.Fatalf("ref Run: %v", err)
	}
	refPos := make(map[int]int, len(refRes.Departures))
	for i, d := range refRes.Departures {
		refPos[d.Packet.ID] = i
	}
	worst := 0
	for i, d := range res.Departures {
		disp := i - refPos[d.Packet.ID]
		if disp < 0 {
			disp = -disp
		}
		if disp > worst {
			worst = disp
		}
	}
	if worst > 24 {
		t.Fatalf("fixed-point vs float displacement %d slots, want ≤24", worst)
	}
}

// TestMemoryTechnologyWindows reproduces the §III-C memory options: the
// QDRII tag store halves the operation window, doubling throughput at
// the same clock; RLDRAM sits between.
func TestMemoryTechnologyWindows(t *testing.T) {
	pps := func(tech taglist.MemTech) float64 {
		s, err := New(Config{Weights: []float64{1}, CapacityBps: 40e9, MemTech: tech})
		if err != nil {
			t.Fatalf("New(%v): %v", tech, err)
		}
		return s.SupportedPPS()
	}
	sdr := pps(taglist.TechSDR)
	qdr := pps(taglist.TechQDRII)
	rld := pps(taglist.TechRLDRAM)
	if qdr != 2*sdr {
		t.Fatalf("QDRII pps %v, want 2× SDR %v", qdr, sdr)
	}
	if !(rld > sdr && rld < qdr) {
		t.Fatalf("RLDRAM pps %v not between SDR %v and QDRII %v", rld, sdr, qdr)
	}
	// Functional behaviour is identical across technologies.
	pkts := mix(t, 100)
	for _, tech := range []taglist.MemTech{taglist.TechSDR, taglist.TechQDRII, taglist.TechRLDRAM} {
		s, err := New(Config{Weights: []float64{0.3, 0.5, 0.2}, CapacityBps: 1e6, MemTech: tech})
		if err != nil {
			t.Fatalf("New(%v): %v", tech, err)
		}
		res, err := s.Run(pkts)
		if err != nil {
			t.Fatalf("Run(%v): %v", tech, err)
		}
		if len(res.Departures) != len(pkts) {
			t.Fatalf("%v served %d of %d", tech, len(res.Departures), len(pkts))
		}
	}
}

// TestSessionScaling reproduces the paper's scalability claim (§IV: "The
// number of sessions supported by the scheduler is scalable up to 8
// million concurrent sessions"): sessions live only in the tag
// computation; the sorter's fixed-time behaviour is independent of the
// session count.
func TestSessionScaling(t *testing.T) {
	for _, flows := range []int{4, 64, 1024} {
		flows := flows
		t.Run(fmt.Sprintf("%dflows", flows), func(t *testing.T) {
			weights := make([]float64, flows)
			for f := range weights {
				weights[f] = 1.0 / float64(flows)
			}
			var srcs []traffic.Source
			perFlow := 4096 / flows
			if perFlow < 2 {
				perFlow = 2
			}
			for f := 0; f < flows; f++ {
				src, err := traffic.NewPoisson(f, 50, traffic.FixedSize(200), perFlow, int64(f+1))
				if err != nil {
					t.Fatalf("NewPoisson: %v", err)
				}
				srcs = append(srcs, src)
			}
			pkts, err := traffic.Merge(srcs...)
			if err != nil {
				t.Fatalf("Merge: %v", err)
			}
			s, err := New(Config{Weights: weights, CapacityBps: 10e6, SorterCapacity: 8192})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, err := s.Run(pkts)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(res.Departures) != len(pkts) {
				t.Fatalf("served %d of %d", len(res.Departures), len(pkts))
			}
			// Fixed time regardless of session count.
			if res.Sorter.TreeMaxDepth > 3 {
				t.Fatalf("%d flows: tree depth %d", flows, res.Sorter.TreeMaxDepth)
			}
		})
	}
}

func TestFourCycleWindows(t *testing.T) {
	pkts := mix(t, 100)
	s, err := New(Config{Weights: []float64{1, 1, 1}, CapacityBps: 1e6})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run(pkts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Every list operation fits the fixed window; the count equals
	// inserts + extracts (no combined ops in this serialized model).
	if res.Windows == 0 || res.Sorter.ListAccesses > 4*res.Windows {
		t.Fatalf("windows=%d accesses=%d — 4-cycle window violated", res.Windows, res.Sorter.ListAccesses)
	}
	if res.Sorter.TreeMaxDepth > 3 {
		t.Fatalf("tree depth %d exceeds 3", res.Sorter.TreeMaxDepth)
	}
}
