// The four engine workloads: engine-sat and engine-churn drive the
// serving engine closed-loop at capacity, engine-paced-lo and -hi drive
// it open-loop at fixed rates. All four share one driver.
//
//wfqlint:ignore-file determinism the benchmark harness measures host wall-clock time by design; seeded inputs and modelled counts stay deterministic and are checked for it
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"wfqsort/internal/engine"
)

const (
	enginePackets = 500_000 // per closed-loop repetition
	pacedSeconds  = 1.0     // per open-loop repetition
	// pacedPeriod is the open loop's burst period. A sleep shorter than a
	// millisecond takes 1.09 ms on the sandbox (README, generator rules),
	// so this is the shortest period a sleeping generator keeps.
	pacedPeriod = 2 * time.Millisecond
	// submitStampEvery is how many closed-loop submissions share one
	// clock read on the generator side; latency is in milliseconds
	// there, the stamp is at most this many submissions old.
	submitStampEvery = 16
	churnEvery       = 8    // every churnEvery-th packet is low-priority
	churnAge         = 2048 // submissions before its control request
	engineSampleOne  = 64
	controlSampleOne = 8 // one timed control request in this many gets a span
)

// engineSpec tells the shared driver what to run.
type engineSpec struct {
	cfg   engine.Config
	churn bool
	// pps is the open-loop offered rate; 0 selects the closed loop.
	pps int
}

var (
	engineSatCfg = engine.Config{
		Lanes: 4, LaneCapacity: 1024, RingSize: 256, BatchSize: 64, OutBuffer: 256,
		Policy: engine.PolicyBlock,
	}
	engineChurnCfg = engine.Config{
		Lanes: 4, LaneCapacity: 2048, RingSize: 256, BatchSize: 64, ServeAhead: 8, OutBuffer: 16,
		Policy: engine.PolicyBlock,
	}
)

// control is one scripted Cancel or Reweight of an aged low-priority
// packet.
type control struct {
	target   int32 // packet index
	newTag   int32
	reweight bool
}

type engineLoad struct {
	o    options
	spec engineSpec
	tags []int32
	// controls[i] is the request issued right after packet i, if any.
	controls map[int]control
}

func newEngineLoad(spec engineSpec) func(options) workload {
	return func(o options) workload { return &engineLoad{o: o, spec: spec} }
}

func (w *engineLoad) burst() int {
	return int(float64(w.spec.pps) * pacedPeriod.Seconds())
}

func (w *engineLoad) setup() error {
	n := w.o.n(enginePackets, 2048)
	if w.spec.pps > 0 {
		bursts := w.o.n(int(pacedSeconds/pacedPeriod.Seconds()), 10)
		n = bursts * w.burst()
	}
	tags, err := bellTags(w.o.seed, n)
	if err != nil {
		return err
	}
	w.tags = tags
	if !w.spec.churn {
		return nil
	}
	// Churn keeps the ordinary stream in the lower half of the tag
	// space and parks every churnEvery-th packet in the upper half,
	// where it waits behind the stream until its control request —
	// alternately a Cancel and a Reweight into the lower half — lands.
	rng := rand.New(rand.NewSource(w.o.seed ^ 0x5eed))
	const half = 2048
	w.controls = make(map[int]control, n/churnEvery)
	reweight := false
	for i := range tags {
		if i%churnEvery != 0 {
			tags[i] /= 2
			continue
		}
		tags[i] = int32(half + rng.Intn(half))
		if at := i + churnAge; at < n {
			w.controls[at] = control{target: int32(i), newTag: int32(rng.Intn(half)), reweight: reweight}
			reweight = !reweight
		}
	}
	return nil
}

// stamped is one sampled Submit call of a traced repetition.
type stamped struct {
	idx          int
	enter, leave time.Time
}

func (w *engineLoad) rep(tr *tracer) (sample, error) {
	n := len(w.tags)
	s := sample{offered: n}
	t0 := time.Now()
	e, err := engine.New(w.spec.cfg)
	if err != nil {
		return s, err
	}
	if err := e.Start(); err != nil {
		return s, err
	}
	s.setupS = time.Since(t0).Seconds()

	// The consumer owns count and recvNs until consumerDone closes.
	count := make([]uint8, n)
	recvNs := make([]int64, n)
	unknown := 0
	consumerDone := make(chan struct{})
	var sampler *occupancySampler
	if tr != nil {
		sampler = startOccupancySampler(e)
	}
	m := startMeter()
	var chunkNs []int64 // durations of consecutive opChunk-delivery chunks
	go func() {
		defer close(consumerDone)
		delivered, chunkStart := 0, int64(0)
		for sv := range e.Served() {
			if sv.Payload < 0 || sv.Payload >= n {
				unknown++
				continue
			}
			if count[sv.Payload] < 255 {
				count[sv.Payload]++
			}
			now := time.Since(m.t0).Nanoseconds()
			recvNs[sv.Payload] = now
			if delivered++; delivered%opChunk == 0 {
				chunkNs = append(chunkNs, now-chunkStart)
				chunkStart = now
			}
		}
	}()

	// dueNs[i/group] is when packet i entered: the time its burst was
	// offered in the open loop, the latest generator stamp in the closed
	// loop.
	group := submitStampEvery
	if w.spec.pps > 0 {
		group = w.burst()
	}
	dueNs := make([]int64, (n+group-1)/group)
	var spans []stamped
	var controlNs []int64
	cancelled := map[int32]bool{}
	controlsAdmitted, controlsIssued := 0, 0
	var lateNs []int64 // how late each open-loop sleep ended
	submitErr := func() error {
		for i := 0; i < n; i++ {
			if i%group == 0 {
				now := time.Since(m.t0)
				if w.spec.pps > 0 {
					// Open loop: sleep (never spin) to the burst's due
					// time. A burst offered straight after a sleep is
					// timed from the wake-up, and the timer's overshoot is
					// reported as the generator's lateness; a burst the
					// generator reaches already behind schedule — because
					// Submit blocked or the host stalled it — is timed
					// from its due time, so the stall is charged to every
					// packet it delays.
					due := time.Duration(i/group) * pacedPeriod
					if now < due {
						time.Sleep(due - now)
						now = time.Since(m.t0)
						lateNs = append(lateNs, (now - due).Nanoseconds())
					} else {
						now = due
					}
				}
				dueNs[i/group] = now.Nanoseconds()
			}
			var ok bool
			var err error
			if tr != nil && i%engineSampleOne == 0 {
				a := time.Now()
				ok, err = e.Submit(int(w.tags[i]), i)
				spans = append(spans, stamped{idx: i, enter: a, leave: time.Now()})
			} else {
				ok, err = e.Submit(int(w.tags[i]), i)
			}
			if err != nil || !ok {
				return fmt.Errorf("submit %d: admitted %v: %v", i, ok, err)
			}
			c, has := w.controls[i]
			if !has {
				continue
			}
			var a time.Time
			if tr != nil {
				a = time.Now()
			}
			if c.reweight {
				ok, err = e.Reweight(int(w.tags[c.target]), int(c.target), int(c.newTag))
			} else {
				ok, err = e.Cancel(int(w.tags[c.target]), int(c.target))
			}
			if tr != nil {
				b := time.Now()
				controlNs = append(controlNs, b.Sub(a).Nanoseconds())
				if len(controlNs)%controlSampleOne == 0 {
					tr.add("engine.control", 0, int64(c.target), a, b)
				}
			}
			if err != nil {
				return fmt.Errorf("control for packet %d: %w", c.target, err)
			}
			controlsIssued++
			if ok {
				controlsAdmitted++
				if !c.reweight {
					cancelled[c.target] = true
				}
			}
		}
		return nil
	}()
	stopErr := e.Stop()
	<-consumerDone
	m.stop(&s)
	sampler.stop()
	if submitErr != nil {
		return s, submitErr
	}
	if stopErr != nil {
		return s, fmt.Errorf("stop: %w", stopErr)
	}

	st := e.StatsSnapshot()
	if err := st.ConservationCheck(); err != nil {
		return s, err
	}
	// Every payload is delivered exactly once, except a cancelled one,
	// which is either removed and never delivered or delivered and
	// counted as a miss.
	removed := 0
	latNs := make([]int64, 0, n)
	for i, c := range count {
		switch {
		case c == 1:
			latNs = append(latNs, recvNs[i]-dueNs[i/group])
		case c == 0 && cancelled[int32(i)]:
			removed++
		default:
			return s, fmt.Errorf("payload %d delivered %d times", i, c)
		}
	}
	s.served = len(latNs) + removed
	if unknown != 0 {
		return s, fmt.Errorf("%d deliveries carried payloads never submitted", unknown)
	}
	if uint64(removed) != st.Removed {
		return s, fmt.Errorf("%d cancelled payloads never delivered, engine counts %d removed", removed, st.Removed)
	}
	if got := st.Removed + st.Reweights + st.CancelMisses; uint64(controlsAdmitted) != got {
		return s, fmt.Errorf("%d control requests admitted, engine accounts for %d (removed %d + reweights %d + misses %d)",
			controlsAdmitted, got, st.Removed, st.Reweights, st.CancelMisses)
	}

	// The open loop reports response time from the burst's due time. In
	// the closed loop that time is ring depth over throughput (Little's
	// law), not a property of the engine, so the gated latency there is
	// the service time per delivered packet; the sojourn is printed.
	q := quantilesNs(latNs, 0.5, 0.9, 0.99, 0.999)
	s.p50us, s.p90us = q[0], q[1]
	late := quantilesNs(lateNs, 0.5, 1)
	s.extra = map[string]float64{"gen_late_us_p50": late[0], "gen_late_us_max": late[1]}
	if w.spec.pps == 0 {
		s.p50us, s.p90us = chunkLatency(chunkNs)
		s.extra = map[string]float64{"sojourn_p50_us": q[0], "sojourn_p99_us": q[2]}
	}
	s.cycles = st.MaxLaneCycles
	if tr == nil {
		return s, nil
	}

	var submitNs, transitNs []int64
	for _, sp := range spans {
		if count[sp.idx] != 1 {
			continue
		}
		recv := m.t0.Add(time.Duration(recvNs[sp.idx]))
		tr.addTree("packet", int64(sp.idx), []string{"engine.submit", "engine.transit"},
			[]time.Time{sp.enter, sp.leave, recv})
		submitNs = append(submitNs, sp.leave.Sub(sp.enter).Nanoseconds())
		transitNs = append(transitNs, recv.Sub(sp.leave).Nanoseconds())
	}
	sq := quantilesNs(submitNs, 0.5, 0.99)
	tq := quantilesNs(transitNs, 0.5, 0.99)
	kpkt := float64(s.served) / 1000
	ring, sorter, served := sampler.means()
	s.layers = map[string]float64{
		"engine.submit_ns_p50":         sq[0] * 1e3,
		"engine.submit_ns_p99":         sq[1] * 1e3,
		"engine.control_ns_p50":        quantilesNs(controlNs, 0.5)[0] * 1e3,
		"engine.transit_us_p50":        tq[0],
		"engine.transit_us_p99":        tq[1],
		"engine.latency_p99_us":        q[2],
		"engine.latency_p999_us":       q[3],
		"engine.gen_late_us_max":       late[1],
		"engine.idles_per_kpkt":        float64(st.DatapathIdles) / kpkt,
		"engine.merge_forced_per_kpkt": float64(st.MergeForced) / kpkt,
		"engine.ring_occupancy_mean":   ring,
		"engine.sorter_len_mean":       sorter,
		"engine.served_occupied_mean":  served,
		"engine.model_speedup":         st.ModelSpeedup,
	}
	if st.Batches > 0 {
		s.layers["engine.avg_batch"] = float64(st.BatchedOps) / float64(st.Batches)
	}
	if controlsIssued > 0 {
		s.layers["engine.cancel_drop_frac"] = float64(st.CancelDrops) / float64(controlsIssued)
	}
	if controlsAdmitted > 0 {
		s.layers["engine.cancel_hit_frac"] = float64(st.Removed+st.Reweights) / float64(controlsAdmitted)
	}
	return s, nil
}

func (w *engineLoad) finish() (int, error) { return 0, nil }

// occupancySampler polls the engine's public gauges at 10 Hz during a
// traced repetition.
type occupancySampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup

	n                    int
	ring, sorter, served float64
}

func startOccupancySampler(e *engine.Engine) *occupancySampler {
	o := &occupancySampler{stopCh: make(chan struct{})}
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-o.stopCh:
				return
			case <-tick.C:
				st := e.StatsSnapshot()
				o.n++
				o.ring += float64(st.RingOccupied)
				o.sorter += float64(st.SorterLen)
				o.served += float64(st.ServedOccupied)
			}
		}
	}()
	return o
}

// stop joins the sampler; a nil sampler (untraced run) is a no-op.
func (o *occupancySampler) stop() {
	if o == nil {
		return
	}
	close(o.stopCh)
	o.wg.Wait()
}

func (o *occupancySampler) means() (ring, sorter, served float64) {
	if o.n == 0 {
		return 0, 0, 0
	}
	n := float64(o.n)
	return o.ring / n, o.sorter / n, o.served / n
}
