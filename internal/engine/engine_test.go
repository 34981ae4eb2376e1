package engine

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"wfqsort/internal/aqm"
	"wfqsort/internal/fault"
	"wfqsort/internal/membus"
	"wfqsort/internal/metrics"
	"wfqsort/internal/raceflag"
	"wfqsort/internal/supervisor"
)

// drainAll consumes the Served channel until it closes, returning the
// delivered records.
func drainAll(t *testing.T, e *Engine, out *[]Served, wg *sync.WaitGroup) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := range e.Served() {
			*out = append(*out, s)
		}
	}()
}

// checkConservation asserts the engine's packet-conservation invariant
// after a completed drain, through the same Stats.ConservationCheck the
// conservation analyzer anchors the counter set to.
func checkConservation(t *testing.T, st Stats) {
	t.Helper()
	if err := st.ConservationCheck(); err != nil {
		t.Fatal(err)
	}
	if st.SorterLen != 0 || st.RingOccupied != 0 {
		t.Fatalf("drain incomplete: sorter %d, rings %d", st.SorterLen, st.RingOccupied)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"lanes not power of two", Config{Lanes: 3}, false},
		{"lanes too many", Config{Lanes: 128}, false},
		{"lane capacity too small", Config{LaneCapacity: 1}, false},
		{"negative ring", Config{RingSize: -1}, false},
		{"negative batch", Config{BatchSize: -4}, false},
		{"unknown policy", Config{Policy: Policy(99)}, false},
		{"negative out buffer", Config{OutBuffer: -2}, false},
		{"too many shards", Config{Shards: 100}, false},
		{"negative serve-ahead", Config{ServeAhead: -1}, false},
		{"negative clock", Config{ClockHz: -1}, false},
		{"red zero value", Config{Policy: PolicyRED}, true},
		{"red bad thresholds", Config{Policy: PolicyRED, RED: aqm.REDConfig{MinThreshold: 9, MaxThreshold: 3, MaxP: 0.1}}, false},
		{"red equal thresholds", Config{Policy: PolicyRED, RED: aqm.REDConfig{MinThreshold: 5, MaxThreshold: 5, MaxP: 0.1}}, false},
		{"bad supervision retries", Config{Supervision: supervisor.Config{MaxRetries: -1}}, false},
		{"bad supervision backoff", Config{Supervision: supervisor.Config{BackoffBase: time.Second, BackoffMax: time.Millisecond}}, false},
		{"watchdogs disabled", Config{DrainTimeout: -1, StallTimeout: -1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected error")
			}
		})
	}
	// Zero-value defaults are documented and observable.
	cfg := Config{}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Lanes != 4 || cfg.LaneCapacity != 1024 || cfg.RingSize != 256 ||
		cfg.BatchSize != 64 || cfg.Policy != PolicyBlock || cfg.OutBuffer != 1024 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.DrainTimeout != 5*time.Second || cfg.StallTimeout != 2*time.Second {
		t.Fatalf("unexpected watchdog defaults: drain %v stall %v", cfg.DrainTimeout, cfg.StallTimeout)
	}
	if cfg.Supervision.MaxRetries != 3 || cfg.Supervision.QuarantineAfter != 3 {
		t.Fatalf("unexpected supervision defaults: %+v", cfg.Supervision)
	}
}

func TestLifecycleBeforeStartAndAfterStop(t *testing.T) {
	e, err := New(Config{Lanes: 2, LaneCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(1, 1); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("submit before start: got %v, want ErrNotStarted", err)
	}
	if err := e.Stop(); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("stop before start: got %v, want ErrNotStarted", err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Fatal("second start must fail")
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)
	if _, err := e.Submit(5, 50); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := e.Submit(1, 1); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after stop: got %v, want ErrStopped", err)
	}
	if err := e.Stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	if len(served) != 1 || served[0].Tag != 5 || served[0].Payload != 50 {
		t.Fatalf("served %+v", served)
	}
	checkConservation(t, e.StatsSnapshot())
}

// TestConcurrentProducersBlockPolicy is the race-mode smoke: many
// producers under PolicyBlock, nothing dropped, every payload delivered
// exactly once, extraction order respects per-extraction monotonicity
// within what a concurrent submitter can guarantee (the sorter invariant
// is checked by conservation plus per-tag delivery).
func TestConcurrentProducersBlockPolicy(t *testing.T) {
	const producers = 8
	const perProducer = 400
	e, err := New(Config{Lanes: 4, LaneCapacity: 512, RingSize: 32, BatchSize: 16, OutBuffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var served []Served
	var cwg sync.WaitGroup
	drainAll(t, e, &served, &cwg)

	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 7))
			for i := 0; i < perProducer; i++ {
				tag := rng.Intn(e.TagRange())
				payload := p*perProducer + i
				if ok, err := e.Submit(tag, payload); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				} else if !ok {
					t.Errorf("producer %d: dropped under PolicyBlock", p)
					return
				}
			}
		}(p)
	}
	pwg.Wait()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	cwg.Wait()

	st := e.StatsSnapshot()
	checkConservation(t, st)
	if st.DropsRing != 0 || st.DropsRED != 0 {
		t.Fatalf("PolicyBlock dropped: ring %d, red %d", st.DropsRing, st.DropsRED)
	}
	if got, want := len(served), producers*perProducer; got != want {
		t.Fatalf("served %d of %d", got, want)
	}
	seen := make(map[int]bool, len(served))
	for _, s := range served {
		if seen[s.Payload] {
			t.Fatalf("payload %d delivered twice", s.Payload)
		}
		seen[s.Payload] = true
	}
	if st.Batches == 0 || st.BatchedOps < st.Batches {
		t.Fatalf("batching accounting off: %d batches, %d ops", st.Batches, st.BatchedOps)
	}
	if st.LatencyCount == 0 || st.LatencyP99Ns < 0 {
		t.Fatalf("latency window empty: %+v", st)
	}
}

// TestOverloadDropTail drives 2× the ring capacity through tiny rings
// with a deliberately stalled consumer, so tail drops must engage, and
// then verifies every admitted packet is still delivered after drain.
func TestOverloadDropTail(t *testing.T) {
	e, err := New(Config{
		Lanes: 2, LaneCapacity: 2048, RingSize: 4, BatchSize: 4,
		Policy: PolicyDropTail, OutBuffer: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// No consumer yet: the datapath stalls on the 1-deep Served channel,
	// the rings fill, and tail drop engages deterministically.
	const offered = 512
	admitted := 0
	for i := 0; i < offered; i++ {
		ok, err := e.Submit(i%e.TagRange(), i)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			admitted++
		}
	}
	st := e.StatsSnapshot()
	if st.DropsRing == 0 {
		t.Fatal("expected ring tail drops under overload")
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	st = e.StatsSnapshot()
	checkConservation(t, st)
	if uint64(admitted) != st.Submitted {
		t.Fatalf("admitted %d != submitted %d", admitted, st.Submitted)
	}
	if uint64(offered) != st.Submitted+st.DropsRing {
		t.Fatalf("offered %d != submitted %d + drops %d", offered, st.Submitted, st.DropsRing)
	}
	if len(served) != admitted {
		t.Fatalf("served %d != admitted %d", len(served), admitted)
	}
}

// TestOverloadRED forces early detection with thresholds far below the
// offered load and verifies probabilistic drops are accounted and the
// admitted traffic is conserved.
func TestOverloadRED(t *testing.T) {
	e, err := New(Config{
		Lanes: 2, LaneCapacity: 2048, RingSize: 64, BatchSize: 8,
		Policy: PolicyRED,
		RED:    aqm.REDConfig{MinThreshold: 4, MaxThreshold: 16, MaxP: 0.9, Seed: 11},
		// 1-deep output plus no consumer until after the burst: occupancy
		// builds, so the EWMA must cross the tiny thresholds.
		OutBuffer: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	const offered = 400
	admitted := 0
	for i := 0; i < offered; i++ {
		ok, err := e.Submit(i%e.TagRange(), i)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			admitted++
		}
	}
	st := e.StatsSnapshot()
	if st.DropsRED == 0 {
		t.Fatal("expected RED drops under overload")
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	st = e.StatsSnapshot()
	checkConservation(t, st)
	if uint64(offered) != st.Submitted+st.DropsRED {
		t.Fatalf("offered %d != submitted %d + red drops %d", offered, st.Submitted, st.DropsRED)
	}
	if len(served) != admitted {
		t.Fatalf("served %d != admitted %d", len(served), admitted)
	}
}

// TestFaultContainment attaches a PR-1 fault campaign to one lane fabric
// (the TestFaultInjectedLane recipe: flip the translation-table valid
// bit of a live entry on an odd access so a lookup read sees it) and
// verifies the engine recovers in place — service continues, Stop drains
// cleanly, and the conservation invariant holds with any unrecoverable
// packets accounted in FaultLost.
func TestFaultContainment(t *testing.T) {
	const lanes = 4
	fabrics := make([]*membus.Fabric, lanes)
	for i := range fabrics {
		fabrics[i] = membus.New(nil)
	}
	inj := fault.NewInjector(fault.Campaign{
		Seed: 3,
		Faults: []fault.Fault{
			{Mem: "translation-table", Kind: fault.BitFlip, Addr: 2, Mask: 1 << 8, At: fault.Trigger{Access: 41}},
		},
	}, fabrics[2].Clock())
	inj.Attach(fabrics[2])
	e, err := New(Config{
		Lanes: lanes, LaneCapacity: 256, LaneFabrics: fabrics,
		RingSize: 64, BatchSize: 32, RecoverFaults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)

	// Tag 2 maps to lane 2 interleaved; submitting it early keeps a live
	// translation entry at the flipped address while the access counter
	// runs up to the trigger.
	if _, err := e.Submit(2, 4000); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := e.Submit(rng.Intn(e.TagRange()), i); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := e.Stop(); err != nil {
		t.Fatalf("engine did not contain the fault: %v", err)
	}
	wg.Wait()

	if len(inj.Events()) == 0 {
		t.Fatal("campaign never fired")
	}
	st := e.StatsSnapshot()
	checkConservation(t, st)
	if got := uint64(len(served)); got != st.Extracted {
		t.Fatalf("served %d != extracted %d", got, st.Extracted)
	}
	t.Logf("recoveries=%d faultLost=%d extracted=%d", st.Recoveries, st.FaultLost, st.Extracted)
}

// TestMirrorRefreshZeroAlloc: a lane refreshes its gauge mirror every
// few passes and on every idle pass, so the refresh reuses the mirror's
// storage — no allocation per pass.
func TestMirrorRefreshZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e, err := New(Config{Lanes: 2, LaneCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	lw := e.lanes[0] // not started: this goroutine stands in for the lane's
	lw.updateMirror()
	if avg := testing.AllocsPerRun(100, lw.updateMirror); avg != 0 {
		t.Fatalf("mirror refresh allocates %.2f objects, want 0", avg)
	}
	if _, fabric := lw.mirror.read(); len(fabric) == 0 {
		t.Fatal("mirror holds no fabric regions")
	}
}

// TestStatsSnapshotGauges checks the observability mirror: lane gauges,
// fabric pressure, and the modeled-hardware view are populated.
func TestStatsSnapshotGauges(t *testing.T) {
	e, err := New(Config{Lanes: 4, LaneCapacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)
	for i := 0; i < 256; i++ {
		if _, err := e.Submit(i%e.TagRange(), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	st := e.StatsSnapshot()
	if st.Lanes != 4 || len(st.RingLens) != 4 || len(st.LaneLens) != 4 {
		t.Fatalf("lane gauges missing: %+v", st)
	}
	if len(st.FabricLanes) != 4 || len(st.FabricLanes[0].Regions) == 0 {
		t.Fatalf("fabric pressure missing: %+v", st.FabricLanes)
	}
	if st.WindowCycles <= 0 || st.MaxLaneCycles == 0 || st.SumLaneCycles < st.MaxLaneCycles {
		t.Fatalf("modeled cycle gauges missing: %+v", st)
	}
	if st.ModeledMpps <= 0 {
		t.Fatalf("modeled throughput missing: %+v", st)
	}
	// After Stop the mirror is exact: the lanes have exited, so their
	// clocks and counters can be read here.
	for i, fl := range st.FabricLanes {
		if want := metrics.FabricPressure(nil, e.sorter.LaneFabric(i)); !slices.Equal(fl.Regions, want) {
			t.Fatalf("lane %d: mirror %+v, fabric %+v", i, fl.Regions, want)
		}
	}
	var sum, max uint64
	for i := 0; i < st.Lanes; i++ {
		c := e.sorter.LaneClock(i).Now()
		sum += c
		if c > max {
			max = c
		}
	}
	if st.SumLaneCycles != sum || st.MaxLaneCycles != max {
		t.Fatalf("after Stop: mirror cycles sum %d max %d, lane clocks sum %d max %d", st.SumLaneCycles, st.MaxLaneCycles, sum, max)
	}
	if st.Policy != "block" {
		t.Fatalf("policy label %q", st.Policy)
	}
	// The deprecated accessor must stay equivalent.
	if e.StatsSnapshot().Extracted != st.Extracted {
		t.Fatal("Stats() diverged from StatsSnapshot()")
	}
}

// waitFor polls a condition with a generous deadline (the engine's
// recovery machinery is eventually consistent from an observer's view).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// noSleepSupervision is the test policy: no real backoff sleeps, small
// ops horizons so probes come due within a short workload.
func noSleepSupervision() supervisor.Config {
	return supervisor.Config{
		MaxRetries:      2,
		BackoffBase:     -1,
		QuarantineAfter: 1,
		CleanOps:        1 << 20,
		ProbeOps:        128,
	}
}

// TestQuarantineRemapsAndReinstates is the tentpole scenario: a lane
// takes a persistent-looking fault (QuarantineAfter 1 models "the
// supervisor has lost patience"), is quarantined with its survivors
// evacuated, its tag slice serves degraded from healthy lanes, and a
// later reinstate probe returns it to service — with full packet
// conservation throughout.
func TestQuarantineRemapsAndReinstates(t *testing.T) {
	const lanes = 4
	fabrics := make([]*membus.Fabric, lanes)
	for i := range fabrics {
		fabrics[i] = membus.New(nil)
	}
	inj := fault.NewInjector(fault.Campaign{Seed: 9}, fabrics[1].Clock())
	inj.Attach(fabrics[1])
	sup := noSleepSupervision()
	// The 64 seeded packets generate at most ~128 ops after quarantine,
	// so the probe only comes due once the degraded traffic flows: the
	// degraded window is observable before the reinstate.
	sup.ProbeOps = 500
	e, err := New(Config{
		Lanes: lanes, LaneCapacity: 256, LaneFabrics: fabrics,
		RingSize: 64, BatchSize: 16, RecoverFaults: true,
		Supervision: sup,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)

	// Seed traffic on every lane, then corrupt lane 1's translation
	// table on lane 1's own datapath goroutine and trip its repair pass
	// with an injected panic (the flip alone might sit unnoticed until a
	// lookup).
	for i := 0; i < 64; i++ {
		if _, err := e.Submit(i%e.TagRange(), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.InjectLane(1, func() {
		if _, err := inj.FlipNow("translation-table", 1, 1<<8); err != nil {
			t.Errorf("FlipNow: %v", err)
		}
		panic("chaos: corrupt lane 1")
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "lane 1 quarantine", func() bool {
		return e.StatsSnapshot().Supervision.Quarantines >= 1
	})
	if st := e.StatsSnapshot(); st.Ready {
		t.Fatalf("degraded engine reports ready: %+v", st.Health)
	}

	// Degraded serving: lane 1's tag slice keeps flowing, remapped onto
	// healthy lanes. 1, 5, 9, ... are lane 1 tags (interleaved).
	for i := 0; i < 1000; i++ {
		if _, err := e.Submit((4*i+1)%e.TagRange(), 100000+i); err != nil {
			t.Fatalf("degraded submit %d: %v", i, err)
		}
	}
	waitFor(t, "lane 1 reinstate", func() bool {
		return e.StatsSnapshot().Supervision.Reinstates >= 1
	})
	waitFor(t, "healthy state", func() bool {
		return e.StatsSnapshot().Health == "healthy"
	})
	if err := e.Stop(); err != nil {
		t.Fatalf("stop after quarantine cycle: %v", err)
	}
	wg.Wait()

	st := e.StatsSnapshot()
	checkConservation(t, st)
	if st.Remapped == 0 {
		t.Fatal("no packets were remapped while lane 1 was quarantined")
	}
	if st.DatapathPanics == 0 || st.Recoveries == 0 {
		t.Fatalf("panic containment not exercised: %+v", st)
	}
	if st.Supervision.Quarantines < 1 || st.Supervision.Reinstates < 1 {
		t.Fatalf("supervision counters: %+v", st.Supervision)
	}
	for _, s := range served {
		if s.Tag < 0 || s.Tag >= e.TagRange() {
			t.Fatalf("served tag %d outside range (remap leaked an effective tag?)", s.Tag)
		}
	}
	t.Logf("served=%d remapped=%d evacuated=%d lost=%d supervision=%+v",
		len(served), st.Remapped, st.Evacuated, st.FaultLost, st.Supervision)
}

// TestInjectedPanicContained: with RecoverFaults, a panicking chaos
// action is absorbed as a fault episode and service continues.
func TestInjectedPanicContained(t *testing.T) {
	e, err := New(Config{
		Lanes: 2, LaneCapacity: 64, RecoverFaults: true,
		Supervision: noSleepSupervision(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)
	if err := e.Inject(func() { panic("chaos") }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "panic containment", func() bool {
		return e.StatsSnapshot().DatapathPanics >= 1
	})
	for i := 0; i < 100; i++ {
		if _, err := e.Submit(i%e.TagRange(), i); err != nil {
			t.Fatalf("submit after contained panic: %v", err)
		}
	}
	if err := e.Stop(); err != nil {
		t.Fatalf("stop after contained panic: %v", err)
	}
	wg.Wait()
	st := e.StatsSnapshot()
	checkConservation(t, st)
	if len(served) != 100 {
		t.Fatalf("served %d of 100 after contained panic", len(served))
	}
}

// TestPanicStreakIsTerminal: consecutive datapath panics beyond the
// retry budget stop the engine with a diagnostic instead of looping
// through futile repairs forever.
func TestPanicStreakIsTerminal(t *testing.T) {
	sup := noSleepSupervision()
	sup.MaxRetries = 1
	e, err := New(Config{
		Lanes: 2, LaneCapacity: 64, RecoverFaults: true, Supervision: sup,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)
	for i := 0; i < 4; i++ {
		if err := e.Inject(func() { panic("chaos storm") }); err != nil {
			break // engine already went terminal
		}
	}
	if err := e.Stop(); err == nil {
		t.Fatal("panic storm did not produce a terminal error")
	}
	wg.Wait()
	if st := e.StatsSnapshot(); st.Health != "failed" {
		t.Fatalf("health %q after terminal panic storm, want failed", st.Health)
	}
}

// TestPanicWithoutRecoveryIsTerminal: RecoverFaults off means the first
// datapath panic stops the engine (contained as an error, not a crash).
func TestPanicWithoutRecoveryIsTerminal(t *testing.T) {
	e, err := New(Config{Lanes: 2, LaneCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)
	if err := e.Inject(func() { panic("unsupervised") }); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(); err == nil {
		t.Fatal("unsupervised panic did not stop the engine")
	}
	wg.Wait()
}

// TestDrainWatchdogAbortsWedgedConsumer: a consumer that stops receiving
// mid-drain would hang Stop forever; the drain watchdog sheds the
// remainder accountably and Stop returns with a diagnostic.
func TestDrainWatchdogAbortsWedgedConsumer(t *testing.T) {
	e, err := New(Config{
		Lanes: 2, LaneCapacity: 256, RingSize: 64, BatchSize: 8,
		OutBuffer: 1, DrainTimeout: 50 * time.Millisecond, StallTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := e.Submit(i%e.TagRange(), i); err != nil {
			t.Fatal(err)
		}
	}
	// No consumer at all: the drain wedges on the 1-deep Served channel.
	err = e.Stop()
	if err == nil {
		t.Fatal("wedged drain completed without the watchdog")
	}
	st := e.StatsSnapshot()
	if st.WatchdogTrips == 0 || st.DrainShed == 0 {
		t.Fatalf("watchdog accounting: trips=%d shed=%d", st.WatchdogTrips, st.DrainShed)
	}
	if st.Inserted != st.Extracted+st.FaultLost {
		t.Fatalf("aborted drain broke conservation: inserted %d != extracted %d + lost %d",
			st.Inserted, st.Extracted, st.FaultLost)
	}
	if st.Submitted != st.Inserted {
		t.Fatalf("aborted drain leaked ingest: submitted %d != inserted %d", st.Submitted, st.Inserted)
	}
	if st.SorterLen != 0 || st.RingOccupied != 0 {
		t.Fatalf("aborted drain left occupancy: sorter %d rings %d", st.SorterLen, st.RingOccupied)
	}
	t.Logf("drain aborted: %v (shed %d)", err, st.DrainShed)
}

// TestPerLaneDrainWatchdogSparesHealthyLanes: the drain watchdog is per
// lane, so a single wedged datapath must not cost the other lanes
// anything. Lane 0 is put to sleep by an injected chaos action that
// outlasts DrainTimeout; lane 1 drains normally and parks at the drain
// barrier (backlog-free barrier waiters are exempt from abort). Only
// lane 0's backlog is shed, lane 1's ledger closes lossless, and the
// global conservation identity still holds on the aborted drain.
func TestPerLaneDrainWatchdogSparesHealthyLanes(t *testing.T) {
	e, err := New(Config{
		Lanes: 2, LaneCapacity: 256, RingSize: 64, BatchSize: 8,
		DrainTimeout: 50 * time.Millisecond, StallTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)

	// Wedge lane 0's datapath goroutine past the drain deadline before
	// offering it any traffic, so its whole backlog sits in the
	// submission rings when the watchdog fires. Keep the backlog below
	// the lane's ring capacity: PolicyBlock producers must never park on
	// the sleeping lane, or Stop would wait on them forever.
	if err := e.InjectLane(0, func() { time.Sleep(400 * time.Millisecond) }); err != nil {
		t.Fatal(err)
	}
	const perLane = 40 // interleaved partition: even tags → lane 0, odd → lane 1
	for i := 0; i < perLane; i++ {
		if _, err := e.Submit(2*i, i); err != nil {
			t.Fatalf("lane-0 submit %d: %v", i, err)
		}
		if _, err := e.Submit(2*i+1, perLane+i); err != nil {
			t.Fatalf("lane-1 submit %d: %v", i, err)
		}
	}
	err = e.Stop()
	wg.Wait()
	if err == nil {
		t.Fatal("Stop completed cleanly with lane 0 wedged past DrainTimeout")
	}
	st := e.StatsSnapshot()
	if st.WatchdogTrips == 0 {
		t.Fatal("drain watchdog never tripped")
	}
	l0, l1 := st.LaneLedgers[0], st.LaneLedgers[1]
	if l0.DrainShed == 0 || l0.DrainShed != l0.FaultLost {
		t.Fatalf("wedged lane 0 ledger: shed=%d lost=%d, want all loss from shedding", l0.DrainShed, l0.FaultLost)
	}
	if l1.FaultLost != 0 || l1.DrainShed != 0 {
		t.Fatalf("healthy lane 1 lost packets: %+v", l1)
	}
	if l1.Extracted != perLane {
		t.Fatalf("healthy lane 1 served %d of %d", l1.Extracted, perLane)
	}
	for _, sv := range served {
		if sv.Tag%2 != 0 {
			continue
		}
		// Anything served from lane 0 must predate the abort; it can
		// never overlap the shed set (conservation below pins the sum).
		if l0.Extracted == 0 {
			t.Fatalf("served even tag %d but lane 0 ledger shows no extractions", sv.Tag)
		}
	}
	checkConservation(t, st)
	t.Logf("aborted drain: %v (lane0 shed %d, lane1 extracted %d)", err, l0.DrainShed, l1.Extracted)
}

// TestStallWatchdogFlagsNotReady: a blocked consumer with work pending
// flips the engine to stalled (not ready); progress resuming flips it
// back to healthy. Nothing is shed either way.
func TestStallWatchdogFlagsNotReady(t *testing.T) {
	e, err := New(Config{
		Lanes: 2, LaneCapacity: 512, RingSize: 256, BatchSize: 4,
		OutBuffer: 1, StallTimeout: 30 * time.Millisecond, DrainTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// All on lane 0, far more than one drain pass: the datapath wedges
	// on the unread Served channel with ring occupancy pending.
	for i := 0; i < 64; i++ {
		if _, err := e.Submit(0, i); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "stalled state", func() bool {
		return e.StatsSnapshot().Health == "stalled"
	})
	if e.Ready() {
		t.Fatal("stalled engine reports ready")
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)
	waitFor(t, "healthy after progress", func() bool {
		return e.StatsSnapshot().Health == "healthy"
	})
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	st := e.StatsSnapshot()
	checkConservation(t, st)
	if len(served) != 64 {
		t.Fatalf("stall shed packets: served %d of 64", len(served))
	}
}

// TestHealthSurface walks the observable state machine edges that do not
// need a fault: stopped → healthy → draining/stopped.
func TestHealthSurface(t *testing.T) {
	e, err := New(Config{Lanes: 2, LaneCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.StatsSnapshot(); st.Health != "stopped" || st.Ready {
		t.Fatalf("pre-start health %+v", st.Health)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if st := e.StatsSnapshot(); st.Health != "healthy" || !st.Ready || !e.Ready() {
		t.Fatalf("running health %q ready=%v", st.Health, st.Ready)
	}
	var served []Served
	var wg sync.WaitGroup
	drainAll(t, e, &served, &wg)
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if st := e.StatsSnapshot(); st.Health != "stopped" || st.Ready {
		t.Fatalf("post-stop health %q ready=%v", st.Health, st.Ready)
	}
}
