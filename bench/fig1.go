// fig1-hw: the paper's Fig. 1 system (tag computation, packet buffer,
// sort/retrieve circuit) under bursty traffic with a standing backlog.
//
//wfqlint:ignore-file determinism the benchmark harness measures host wall-clock time by design; seeded inputs and modelled counts stay deterministic and are checked for it
package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"wfqsort/internal/packet"
	"wfqsort/internal/scheduler"
	"wfqsort/internal/traffic"
)

const (
	fig1Flows  = 64
	fig1CapBps = 40e9
	// Every flow offers a Poisson base of IMIX packets; on top, in each
	// period a rotating third of the flows bursts at constant bit rate
	// for the first 45% of the period. The link is offered 1.7× its
	// capacity during a burst and 0.3× after it, 0.93× on average, so
	// the backlog is a sawtooth that peaks near 2,600 of the 4,096
	// buffer slots and drains just before the next burst.
	fig1BaseLoad   = 0.3
	fig1BurstLoad  = 1.4
	fig1BurstFlows = 24 // each at 3.7× its fair share while it bursts
	fig1Period     = 0.54e-3
	fig1OnFrac     = 0.45
	fig1BurstBytes = 340 // the IMIX mean, so packets and bits agree
	fig1Packets    = 80_000
	// imixMeanBits is the mean IMIX packet (7×40 B, 4×576 B, 1×1500 B).
	imixMeanBits = (7*40.0 + 4*576 + 1500) / 12 * 8
)

type fig1 struct {
	o        options
	arrivals []packet.Packet
	weights  []float64
	genS     float64
}

func newFig1(o options) workload { return &fig1{o: o} }

// sawtoothArrivals builds the Fig. 1 arrival trace of about total
// packets: Poisson base sources plus one CBR source per bursting flow
// per period, merged in time order. The seed moves packet sizes, the
// Poisson arrivals and the bursts' start jitter; the shape of the
// backlog does not depend on it.
func sawtoothArrivals(seed int64, total int) ([]packet.Packet, error) {
	capPPS := fig1CapBps / imixMeanBits
	dur := float64(total) / (capPPS * (fig1BaseLoad + fig1BurstLoad*fig1OnFrac))
	var srcs []traffic.Source
	for f := 0; f < fig1Flows; f++ {
		pps := capPPS * fig1BaseLoad / fig1Flows
		s, err := traffic.NewPoisson(f, pps, traffic.IMIX{}, int(pps*dur), seed*1_000_003+int64(f))
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, s)
	}
	rng := rand.New(rand.NewSource(seed))
	rate := fig1CapBps * fig1BurstLoad / fig1BurstFlows
	count := int(rate * fig1Period * fig1OnFrac / (fig1BurstBytes * 8))
	for w := 0; float64(w)*fig1Period < dur; w++ {
		for b := 0; b < fig1BurstFlows; b++ {
			start := float64(w)*fig1Period + rng.Float64()*1e-7
			s, err := traffic.NewCBR((w*fig1BurstFlows+b)%fig1Flows, rate, fig1BurstBytes, count, start)
			if err != nil {
				return nil, err
			}
			srcs = append(srcs, s)
		}
	}
	return traffic.Merge(srcs...)
}

func (w *fig1) setup() error {
	t0 := time.Now()
	arr, err := sawtoothArrivals(w.o.seed, w.o.n(fig1Packets, 2000))
	if err != nil {
		return err
	}
	w.genS = time.Since(t0).Seconds()
	w.arrivals = arr
	w.weights = fig1Weights()
	return nil
}

// fig1Weights gives every Fig. 1 flow the same weight.
func fig1Weights() []float64 {
	weights := make([]float64, fig1Flows)
	for i := range weights {
		weights[i] = 1
	}
	return weights
}

func (w *fig1) rep(tr *tracer) (sample, error) {
	n := len(w.arrivals)
	s := sample{offered: n}
	t0 := time.Now()
	sched, err := scheduler.New(scheduler.Config{
		Weights:     w.weights,
		CapacityBps: fig1CapBps,
		OnFull:      scheduler.FullTailDrop,
	})
	if err != nil {
		return s, err
	}
	t1 := time.Now()
	s.setupS = t1.Sub(t0).Seconds()

	m := startMeter()
	res, err := sched.Run(w.arrivals)
	m.stop(&s)
	if err != nil {
		return s, err
	}
	if tr != nil {
		t2 := t1.Add(time.Duration(s.wallS * float64(time.Second)))
		tr.addTree("run", 0, []string{"scheduler.new", "scheduler.run"}, []time.Time{t0, t1, t2})
	}

	// Every packet departs exactly once; nothing is dropped, lost or
	// detected corrupt.
	seen := make([]bool, n)
	sojournNs := make([]int64, 0, n)
	for _, d := range res.Departures {
		id := d.Packet.ID
		if id < 0 || id >= n || seen[id] {
			return s, fmt.Errorf("packet %d departed twice or is unknown", id)
		}
		seen[id] = true
		s.served++
		sojournNs = append(sojournNs, int64(math.Round((d.Start-d.Packet.Arrival)*1e9)))
	}
	if res.Dropped != 0 || res.Lost != 0 || res.Detections != 0 {
		return s, fmt.Errorf("dropped %d, lost %d, corrupt detections %d; want none", res.Dropped, res.Lost, res.Detections)
	}
	if s.served != n {
		return s, fmt.Errorf("%d of %d packets departed", s.served, n)
	}

	// Latency on this workload is modelled, not host, time: the packet's
	// wait in the scheduler on the simulated 40 Gb/s link.
	q := quantilesNs(sojournNs, 0.5, 0.9)
	s.p50us, s.p90us = q[0], q[1]
	st := res.Sorter
	s.cycles = sched.Sorter().Fabric().Clock().Now()
	pk := float64(n)
	// Sequential accesses of the worst operation, Table I's convention:
	// the tree search's node reads plus one translation read (the tag
	// store's window overlaps them in the pipeline).
	worst := float64(st.TreeMaxDepth + 1)
	if worst > silicon12Limit {
		return s, fmt.Errorf("worst operation made %v sequential accesses, the fixed-time contract allows %d", worst, silicon12Limit)
	}
	s.exact = map[string]float64{
		"modeled_cycles_per_pkt": float64(s.cycles) / pk,
		"worst_op_accesses":      worst,
		"inversions_per_kpkt":    float64(res.Inversions) / pk * 1000,
		"sojourn_p50_us":         s.p50us,
		"peak_buffer":            float64(res.PeakBuffer),
	}
	s.extra = map[string]float64{"traffic_gen_s": w.genS}
	if tr != nil {
		s.layers = map[string]float64{
			"scheduler.pkt_ns":              s.wallS / pk * 1e9,
			"scheduler.windows_per_pkt":     float64(res.Windows) / pk,
			"scheduler.sections_reclaimed":  float64(res.SectionsReclaimed),
			"scheduler.peak_buffer":         float64(res.PeakBuffer),
			"scheduler.inversions_per_kpkt": float64(res.Inversions) / pk * 1000,
		}
	}
	return s, nil
}

func (w *fig1) finish() (int, error) { return 0, nil }
