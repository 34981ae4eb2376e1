// Command sortbench regenerates the paper's Table I: it drives every
// lookup method (software structures, binning, calendar queues, CAMs,
// bit trees, and the paper's multi-bit tree) with a WFQ-like workload
// and prints measured worst-case and mean memory accesses per operation
// plus service-order accuracy.
//
// With -sharded it instead benchmarks the sharded multi-lane sorter
// across lane counts and, with -json, writes the machine-readable
// regression baseline BENCH_sharded.json (format documented in
// EXPERIMENTS.md).
//
// With -membus it drives the silicon sorter on the banked memory fabric
// across tag-store technologies (SDR, QDRII, RLDRAM) and reports the
// arbiter-derived combined-operation window, per-region port traffic,
// and bank balance; with -json it writes BENCH_membus.json.
//
// With -engine it benchmarks the concurrent serving runtime
// (internal/engine): a sustained phase measures end-to-end ops/s and p99
// enqueue-to-extract latency under PolicyBlock, then an overload phase
// offers 2× the measured sustained rate under PolicyDropTail and
// reports the shed fraction, then a GOMAXPROCS scaling sweep (1, 2, 4,
// 8) re-runs the sustained phase at each parallelism level and reports
// the speedup curve of the per-lane datapath; with -json it writes
// BENCH_engine.json (schema wfqsort/bench-engine/v2 — the num_cpu field
// records how many cores the curve actually had available).
//
// With -engine-smoke it runs a reduced two-point scaling check (1 vs 4
// procs) and fails unless 4 procs beat 1 proc by 1.5×; on hosts with
// fewer than 4 CPUs the check is skipped, since a scaling assertion
// without cores to scale onto measures the scheduler, not the engine.
//
// With -disciplines it benchmarks the rank-program seam: every
// discipline (SCFQ, STFQ, WFQ, VirtualClock, EDF, SRPT, LSTF) records
// its op script on a seeded workload, every backend (multi-bit tree,
// sharded sorter, SP-PIFO bank) replays it — exact backends are checked
// position-for-position against the differential oracle, the SP-PIFO
// approximation is scored with inversion/unpifoness metrics and a live
// per-flow unfairness comparison; with -json it writes
// BENCH_disciplines.json.
//
// With -timers it runs the millions-of-timers workload: the sorter as a
// deadline queue over a 20-bit tag geometry, holding -timers-live armed
// timers while a steady phase cancels (Remove, Zipf-biased toward the
// newest timers) and fires (ExtractMin) them at a sustained rate, each
// op paired with a re-arm. The run closes an exact ledger — armed ==
// fired + cancelled + drained, zero lost and zero ghost timers — and
// errors otherwise; with -json it writes BENCH_timers.json.
//
// Usage:
//
//	sortbench [-backlog N] [-steady N] [-window W] [-profile bell|left|uniform] [-seed S]
//	sortbench -sharded [-json BENCH_sharded.json] [-seed S]
//	sortbench -membus [-json BENCH_membus.json] [-seed S]
//	sortbench -engine [-json BENCH_engine.json] [-seed S]
//	sortbench -engine-smoke [-seed S]
//	sortbench -timers [-timers-live N] [-timers-ops N] [-timers-cancel F] [-json BENCH_timers.json] [-seed S]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"wfqsort/internal/core"
	"wfqsort/internal/engine"
	"wfqsort/internal/hwsim"
	"wfqsort/internal/membus"
	"wfqsort/internal/metrics"
	"wfqsort/internal/pqueue"
	"wfqsort/internal/sharded"
	"wfqsort/internal/taglist"
	"wfqsort/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sortbench:", err)
		os.Exit(1)
	}
}

func run() error {
	backlog := flag.Int("backlog", 2000, "standing backlog (N) the methods must sort")
	steady := flag.Int("steady", 2000, "steady-state insert+extract pairs")
	window := flag.Int("window", 800, "tag window above the service floor")
	profileName := flag.String("profile", "bell", "tag distribution: bell, left, uniform (paper Fig. 6)")
	seed := flag.Int64("seed", 1, "workload seed")
	shardedMode := flag.Bool("sharded", false, "benchmark the sharded multi-lane sorter across lane counts")
	membusMode := flag.Bool("membus", false, "benchmark the memory fabric across tag-store technologies")
	engineMode := flag.Bool("engine", false, "benchmark the concurrent serving engine (sustained + 2x overload + GOMAXPROCS scaling sweep)")
	engineSmoke := flag.Bool("engine-smoke", false, "reduced 1-vs-4-proc engine scaling check (CI gate; skipped below 4 CPUs)")
	disciplinesMode := flag.Bool("disciplines", false, "benchmark the rank-program x backend matrix (exact sorters oracle-checked, SP-PIFO scored for approximation error)")
	timersMode := flag.Bool("timers", false, "millions-of-timers workload: arm/cancel/fire deadlines over a 20-bit sorter with an exact ledger")
	timersLive := flag.Int("timers-live", 1_000_000, "with -timers: live timer population to hold")
	timersOps := flag.Int("timers-ops", 4_000_000, "with -timers: steady-state cancel/fire operations (each paired with a re-arm)")
	timersCancel := flag.Float64("timers-cancel", 0.6, "with -timers: fraction of steady ops that cancel instead of fire")
	jsonPath := flag.String("json", "", "with -sharded, -membus, -engine, -disciplines, or -timers: also write machine-readable results to this file")
	flag.Parse()

	if *shardedMode {
		return runSharded(*seed, *jsonPath)
	}
	if *membusMode {
		return runMembus(*seed, *jsonPath)
	}
	if *engineMode {
		return runEngine(*seed, *jsonPath)
	}
	if *engineSmoke {
		return runEngineSmoke(*seed)
	}
	if *disciplinesMode {
		return runDisciplines(*jsonPath)
	}
	if *timersMode {
		return runTimers(*seed, *timersLive, *timersOps, *timersCancel, *jsonPath)
	}

	var profile traffic.TagProfile
	switch *profileName {
	case "bell":
		profile = traffic.ProfileBell
	case "left":
		profile = traffic.ProfileLeftWeighted
	case "uniform":
		profile = traffic.ProfileUniform
	default:
		return fmt.Errorf("unknown profile %q", *profileName)
	}

	params := pqueue.DefaultParams()
	if *backlog+16 > params.Capacity {
		params.Capacity = *backlog + 16
	}
	methods, err := pqueue.NewAll(params)
	if err != nil {
		return err
	}

	fmt.Printf("Table I reproduction — %d-bit tags, backlog %d, window %d, %s profile\n",
		params.TagBits, *backlog, *window, profile)
	fmt.Printf("(accesses are worst-case sequential memory touches per operation)\n\n")

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "method\tmodel\texact\tworst ins\tworst ext\tmean ins\tmean ext\tinversions")
	for _, q := range methods {
		res, err := pqueue.RunWorkload(q, *backlog, *steady, *window, 1<<uint(params.TagBits), profile, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name(), err)
		}
		fmt.Fprintf(w, "%s\t%s\t%v\t%d\t%d\t%.2f\t%.2f\t%d\n",
			res.Name, res.Model, res.Exact,
			res.Stats.WorstInsert, res.Stats.WorstExtract,
			res.Stats.MeanInsert(), res.Stats.MeanExtract(), res.Inversions)
	}
	return w.Flush()
}

// shardedWorkload fixes the benchmark shape so JSON baselines are
// comparable across runs: batched inserts with a Fig. 6 bell tag
// profile, full extraction between batches.
const (
	shardedBatch   = 64
	shardedBatches = 256
	shardedClockHz = 143.2e6
)

// laneResult is one lane-count row of BENCH_sharded.json.
type laneResult struct {
	Lanes int `json:"lanes"`

	// Wall-clock software throughput of the simulator. The sharded
	// sorter runs its lanes on one goroutine, so this does NOT show the
	// hardware's lane parallelism — ModelSpeedup does.
	WallOpsPerSec float64 `json:"wall_ops_per_sec"`
	P99ExtractNs  float64 `json:"p99_extract_ns"`

	// Cycle-accurate hardware model: a batch costs its busiest lane's
	// cycles, so ModelSpeedup = Σ lane cycles / max lane cycles and the
	// modeled packet rate is clock/4 × speedup.
	ModelSpeedup  float64 `json:"model_speedup"`
	ModeledMpps   float64 `json:"modeled_mpps"`
	MaxLaneCycles uint64  `json:"max_lane_cycles"`
	SumLaneCycles uint64  `json:"sum_lane_cycles"`
	SelectDepth   int     `json:"select_depth"`

	LaneInsertImbalance float64 `json:"lane_insert_imbalance"`
	PeakOccImbalance    float64 `json:"peak_occupancy_imbalance"`
}

// shardedReport is the BENCH_sharded.json document.
type shardedReport struct {
	Schema     string       `json:"schema"`
	ClockHz    float64      `json:"clock_hz"`
	Seed       int64        `json:"seed"`
	Batch      int          `json:"batch"`
	Batches    int          `json:"batches"`
	NumCPU     int          `json:"num_cpu"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Results    []laneResult `json:"results"`
}

func runSharded(seed int64, jsonPath string) error {
	report := shardedReport{
		Schema:     "wfqsort/bench-sharded/v1",
		ClockHz:    shardedClockHz,
		Seed:       seed,
		Batch:      shardedBatch,
		Batches:    shardedBatches,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fmt.Printf("sharded multi-lane sorter — %d batches of %d, bell profile, seed %d\n",
		shardedBatches, shardedBatch, seed)
	fmt.Printf("(wall numbers are simulator software speed on %d CPU(s); hardware scaling is the cycle model)\n\n",
		report.NumCPU)
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "lanes\twall ops/s\tp99 extract\tmodel speedup\tmodeled Mpps\tinsert imbalance\tpeak occ imbalance")
	for _, lanes := range []int{1, 2, 4, 8} {
		res, err := benchShardedLanes(lanes, seed)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, res)
		fmt.Fprintf(w, "%d\t%.0f\t%.0f ns\t%.2fx\t%.1f\t%.3f\t%.3f\n",
			res.Lanes, res.WallOpsPerSec, res.P99ExtractNs, res.ModelSpeedup,
			res.ModeledMpps, res.LaneInsertImbalance, res.PeakOccImbalance)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if base := report.Results[0]; len(report.Results) >= 3 {
		fmt.Printf("\n4-lane vs 1-lane: %.2fx modeled throughput (%.1f → %.1f Mpps)\n",
			report.Results[2].ModeledMpps/base.ModeledMpps, base.ModeledMpps, report.Results[2].ModeledMpps)
	}
	if jsonPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonPath)
	return nil
}

func benchShardedLanes(lanes int, seed int64) (laneResult, error) {
	s, err := sharded.New(sharded.Config{Lanes: lanes, LaneCapacity: 2 * shardedBatch})
	if err != nil {
		return laneResult{}, err
	}
	gen, err := traffic.NewTagGen(traffic.ProfileBell, seed)
	if err != nil {
		return laneResult{}, err
	}
	extractNs := make([]float64, 0, shardedBatch*shardedBatches)
	peakOcc := 0.0
	ops := 0
	start := time.Now() //wfqlint:ignore determinism wall-clock benchmark timing, not simulation state
	for b := 0; b < shardedBatches; b++ {
		reqs := make([]sharded.Request, shardedBatch)
		for i := range reqs {
			reqs[i] = sharded.Request{Tag: gen.Sample(0, 4095), Payload: i}
		}
		if _, err := s.InsertBatch(reqs); err != nil {
			return laneResult{}, err
		}
		if occ := metrics.LaneOccupancy(s.LaneLens()).Imbalance; occ > peakOcc {
			peakOcc = occ
		}
		for i := 0; i < shardedBatch; i++ {
			t0 := time.Now() //wfqlint:ignore determinism wall-clock benchmark timing, not simulation state
			if _, err := s.ExtractMin(); err != nil {
				return laneResult{}, err
			}
			extractNs = append(extractNs, float64(time.Since(t0).Nanoseconds())) //wfqlint:ignore determinism wall-clock benchmark timing, not simulation state
		}
		ops += 2 * shardedBatch
	}
	elapsed := time.Since(start) //wfqlint:ignore determinism wall-clock benchmark timing, not simulation state
	st := s.StatsSnapshot()
	sort.Float64s(extractNs)
	p99 := extractNs[len(extractNs)*99/100]
	return laneResult{
		Lanes:               lanes,
		WallOpsPerSec:       float64(ops) / elapsed.Seconds(),
		P99ExtractNs:        p99,
		ModelSpeedup:        st.ModelSpeedup(),
		ModeledMpps:         shardedClockHz / 4 * st.ModelSpeedup() / 1e6,
		MaxLaneCycles:       st.MaxLaneCycles,
		SumLaneCycles:       st.SumLaneCycles,
		SelectDepth:         st.SelectDepth,
		LaneInsertImbalance: metrics.LaneLoad(st.LaneInserts).Imbalance,
		PeakOccImbalance:    peakOcc,
	}, nil
}

// membusWorkload fixes the fabric benchmark shape so JSON baselines are
// comparable across runs: a standing backlog, then steady-state
// combined insert+extract windows with a Fig. 6 bell tag profile.
const (
	membusCapacity = 256
	membusBacklog  = 128
	membusSteady   = 1024
)

// membusRegionResult is one fabric region's traffic in BENCH_membus.json.
type membusRegionResult struct {
	Name        string  `json:"name"`
	Reads       uint64  `json:"reads"`
	Writes      uint64  `json:"writes"`
	Cycles      uint64  `json:"cycles"`
	StallCycles uint64  `json:"stall_cycles"`
	Conflicts   uint64  `json:"conflicts"`
	StallFrac   float64 `json:"stall_frac"`
	BankLoadImb float64 `json:"bank_load_imbalance"`
}

// membusResult is one memory-technology row of BENCH_membus.json.
type membusResult struct {
	Tech string `json:"tech"`

	// NominalWindowCycles is the technology's documented combined
	// insert+extract window budget; WorstCombinedWindow is the longest
	// window span the port arbiter actually scheduled during the steady
	// phase. The two agreeing is the "derived, not hand-charged"
	// property. AvgCombinedWindow is smaller: fast paths (bypass, head
	// insert) schedule fewer accesses and the arbiter charges only what
	// the port schedule requires.
	NominalWindowCycles int     `json:"nominal_window_cycles"`
	WorstCombinedWindow uint64  `json:"worst_combined_window_cycles"`
	AvgCombinedWindow   float64 `json:"avg_combined_window_cycles"`

	ClockCycles uint64               `json:"clock_cycles"`
	Regions     []membusRegionResult `json:"regions"`
}

// membusReport is the BENCH_membus.json document.
type membusReport struct {
	Schema   string         `json:"schema"`
	Seed     int64          `json:"seed"`
	Capacity int            `json:"capacity"`
	Backlog  int            `json:"backlog"`
	Steady   int            `json:"steady"`
	Results  []membusResult `json:"results"`
}

func runMembus(seed int64, jsonPath string) error {
	report := membusReport{
		Schema:   "wfqsort/bench-membus/v1",
		Seed:     seed,
		Capacity: membusCapacity,
		Backlog:  membusBacklog,
		Steady:   membusSteady,
	}
	fmt.Printf("memory fabric — backlog %d, %d combined windows, bell profile, seed %d\n",
		membusBacklog, membusSteady, seed)
	fmt.Printf("(windows are scheduled by the port arbiter; nominal vs measured agreeing means no hand-charged cycles)\n\n")
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "tech\tnominal window\tworst window\tmean window\tclock cycles\tlist stalls\tlist conflicts\tlist bank imbalance")
	for _, tech := range []taglist.MemTech{taglist.TechSDR, taglist.TechQDRII, taglist.TechRLDRAM} {
		res, err := benchMembusTech(tech, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", tech, err)
		}
		report.Results = append(report.Results, res)
		var list membusRegionResult
		for _, r := range res.Regions {
			if r.Name == "tag-storage" {
				list = r
			}
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t%d\t%d\t%d\t%.3f\n",
			res.Tech, res.NominalWindowCycles, res.WorstCombinedWindow, res.AvgCombinedWindow,
			res.ClockCycles, list.StallCycles, list.Conflicts, list.BankLoadImb)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if jsonPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonPath)
	return nil
}

func benchMembusTech(tech taglist.MemTech, seed int64) (membusResult, error) {
	clock := &hwsim.Clock{}
	fab := membus.New(clock)
	s, err := core.New(core.Config{Capacity: membusCapacity, MemTech: tech, Fabric: fab, Clock: clock})
	if err != nil {
		return membusResult{}, err
	}
	gen, err := traffic.NewTagGen(traffic.ProfileBell, seed)
	if err != nil {
		return membusResult{}, err
	}
	for i := 0; i < membusBacklog; i++ {
		if err := s.Insert(gen.Sample(0, 4095), i); err != nil {
			return membusResult{}, err
		}
	}
	list := fab.Region("tag-storage")
	var worst, spanSum, spanCount uint64
	prev := list.StatsSnapshot()
	for i := 0; i < membusSteady; i++ {
		if _, err := s.InsertExtractMin(gen.Sample(0, 4095), i); err != nil {
			return membusResult{}, err
		}
		cur := list.StatsSnapshot()
		if dw := cur.Windows - prev.Windows; dw > 0 {
			span := cur.WindowCycles - prev.WindowCycles
			spanSum += span
			spanCount += dw
			if span > worst {
				worst = span
			}
		}
		prev = cur
	}
	if _, err := s.Drain(); err != nil {
		return membusResult{}, err
	}
	nominal, err := tech.WindowCyclesFor()
	if err != nil {
		return membusResult{}, err
	}
	res := membusResult{
		Tech:                tech.String(),
		NominalWindowCycles: nominal,
		WorstCombinedWindow: worst,
		ClockCycles:         clock.Now(),
	}
	if spanCount > 0 {
		res.AvgCombinedWindow = float64(spanSum) / float64(spanCount)
	}
	for _, r := range fab.Regions() {
		st := r.StatsSnapshot()
		pp := metrics.RegionPressure(r.Name(), st)
		res.Regions = append(res.Regions, membusRegionResult{
			Name:        r.Name(),
			Reads:       st.Reads,
			Writes:      st.Writes,
			Cycles:      st.Cycles,
			StallCycles: st.StallCycles,
			Conflicts:   st.Conflicts,
			StallFrac:   pp.StallFrac,
			BankLoadImb: metrics.BankLoad(r.BankStats()).Imbalance,
		})
	}
	return res, nil
}

// engineWorkload fixes the engine benchmark shape so JSON baselines are
// comparable across runs: a sustained phase with blocking backpressure
// measures the runtime's end-to-end capacity, then an overload phase
// offers twice that rate with tail-drop shedding.
const (
	engineLanes     = 4
	engineLaneCap   = 1024
	engineRing      = 256
	engineBatch     = 64
	engineProducers = 4
	engineOps       = 200_000
)

// enginePhaseResult is one phase row of BENCH_engine.json.
type enginePhaseResult struct {
	Phase   string `json:"phase"`
	Policy  string `json:"policy"`
	Offered uint64 `json:"offered"`

	// OfferedPerSec is the producer-side attempt rate; in the overload
	// phase it is paced at 2x the sustained capacity.
	OfferedPerSec float64 `json:"offered_per_sec"`
	// OpsPerSec is the sustained served rate over the whole phase,
	// including the final drain.
	OpsPerSec float64 `json:"ops_per_sec"`
	DropRate  float64 `json:"drop_rate"`
	Dropped   uint64  `json:"dropped"`
	Served    uint64  `json:"served"`

	P99LatencyNs  float64 `json:"p99_latency_ns"`
	MeanLatencyNs float64 `json:"mean_latency_ns"`

	Batches  uint64  `json:"batches"`
	AvgBatch float64 `json:"avg_batch"`

	ModelSpeedup float64 `json:"model_speedup"`
	ModeledMpps  float64 `json:"modeled_mpps"`
}

// engineScalingResult is one GOMAXPROCS point of the scaling curve:
// the sustained phase re-run at a fixed parallelism level. SpeedupVs1
// normalizes against this run's own 1-proc point, so the curve is
// meaningful even when absolute throughput moves between hosts.
type engineScalingResult struct {
	GoMaxProcs   int     `json:"gomaxprocs"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	P99LatencyNs float64 `json:"p99_latency_ns"`
	SpeedupVs1   float64 `json:"speedup_vs_1proc"`
}

// engineReport is the BENCH_engine.json document
// (schema wfqsort/bench-engine/v2: v1 plus the scaling sweep).
type engineReport struct {
	Schema     string                `json:"schema"`
	Seed       int64                 `json:"seed"`
	Lanes      int                   `json:"lanes"`
	Producers  int                   `json:"producers"`
	Ops        int                   `json:"ops"`
	NumCPU     int                   `json:"num_cpu"`
	GoMaxProcs int                   `json:"gomaxprocs"`
	Results    []enginePhaseResult   `json:"results"`
	Scaling    []engineScalingResult `json:"scaling"`
}

// engineScalingProcs is the GOMAXPROCS sweep of the scaling curve.
var engineScalingProcs = []int{1, 2, 4, 8}

func runEngine(seed int64, jsonPath string) error {
	report := engineReport{
		Schema:     "wfqsort/bench-engine/v2",
		Seed:       seed,
		Lanes:      engineLanes,
		Producers:  engineProducers,
		Ops:        engineOps,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fmt.Printf("serving engine — %d lanes, %d producers, %d ops, bell profile, seed %d\n",
		engineLanes, engineProducers, engineOps, seed)
	fmt.Printf("(sustained phase blocks on backpressure; overload phase offers 2x sustained with tail drop)\n\n")

	sustained, err := benchEnginePhase(seed, engine.PolicyBlock, 0, engineOps)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, sustained)
	overload, err := benchEnginePhase(seed, engine.PolicyDropTail, 2*sustained.OpsPerSec, engineOps)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, overload)

	for _, procs := range engineScalingProcs {
		r, err := benchEngineAtProcs(seed, procs, engineOps)
		if err != nil {
			return err
		}
		pt := engineScalingResult{
			GoMaxProcs:   procs,
			OpsPerSec:    r.OpsPerSec,
			P99LatencyNs: r.P99LatencyNs,
		}
		if base := report.Scaling; len(base) > 0 && base[0].OpsPerSec > 0 {
			pt.SpeedupVs1 = pt.OpsPerSec / base[0].OpsPerSec
		} else {
			pt.SpeedupVs1 = 1
		}
		report.Scaling = append(report.Scaling, pt)
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "phase\tpolicy\toffered/s\tserved ops/s\tdrop rate\tp99 latency\tmean latency\tavg batch")
	for _, r := range report.Results {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.3f\t%.0f ns\t%.0f ns\t%.1f\n",
			r.Phase, r.Policy, r.OfferedPerSec, r.OpsPerSec, r.DropRate,
			r.P99LatencyNs, r.MeanLatencyNs, r.AvgBatch)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\nsustained %.0f ops/s; at 2x overload the engine shed %.1f%% and held %.0f ops/s\n",
		sustained.OpsPerSec, 100*overload.DropRate, overload.OpsPerSec)

	fmt.Printf("\nscaling sweep (sustained phase, %d CPUs available)\n", report.NumCPU)
	sw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(sw, "gomaxprocs\tserved ops/s\tp99 latency\tspeedup vs 1 proc")
	for _, pt := range report.Scaling {
		fmt.Fprintf(sw, "%d\t%.0f\t%.0f ns\t%.2fx\n",
			pt.GoMaxProcs, pt.OpsPerSec, pt.P99LatencyNs, pt.SpeedupVs1)
	}
	if err := sw.Flush(); err != nil {
		return err
	}
	if jsonPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonPath)
	return nil
}

// benchEngineAtProcs runs one sustained phase pinned to a GOMAXPROCS
// level, restoring the previous level afterwards — one point of the
// scaling curve.
func benchEngineAtProcs(seed int64, procs, ops int) (enginePhaseResult, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	return benchEnginePhase(seed, engine.PolicyBlock, 0, ops)
}

// runEngineSmoke is the CI scaling gate: a reduced two-point sweep that
// fails unless 4 procs beat 1 proc by smokeMinSpeedup. Hosts without 4
// CPUs skip (exit 0) — there is nothing to scale onto.
func runEngineSmoke(seed int64) error {
	const smokeOps = 50_000
	const smokeMinSpeedup = 1.5
	if runtime.NumCPU() < 4 {
		fmt.Printf("engine scaling smoke skipped: %d CPUs available, need 4\n", runtime.NumCPU())
		return nil
	}
	one, err := benchEngineAtProcs(seed, 1, smokeOps)
	if err != nil {
		return err
	}
	four, err := benchEngineAtProcs(seed, 4, smokeOps)
	if err != nil {
		return err
	}
	speedup := four.OpsPerSec / one.OpsPerSec
	fmt.Printf("engine scaling smoke: 1 proc %.0f ops/s, 4 procs %.0f ops/s, speedup %.2fx\n",
		one.OpsPerSec, four.OpsPerSec, speedup)
	if speedup < smokeMinSpeedup {
		return fmt.Errorf("engine scaling smoke failed: 4-proc speedup %.2fx below the %.1fx gate", speedup, smokeMinSpeedup)
	}
	return nil
}

// benchEnginePhase drives one engine through ops submissions from
// engineProducers goroutines. ratePerSec 0 means unpaced (producers run
// at full speed against blocking backpressure); nonzero paces the
// aggregate offered rate with a credit loop.
func benchEnginePhase(seed int64, policy engine.Policy, ratePerSec float64, ops int) (enginePhaseResult, error) {
	e, err := engine.New(engine.Config{
		Lanes: engineLanes, LaneCapacity: engineLaneCap,
		RingSize: engineRing, BatchSize: engineBatch,
		Policy: policy, OutBuffer: 4 * engineBatch,
	})
	if err != nil {
		return enginePhaseResult{}, err
	}
	if err := e.Start(); err != nil {
		return enginePhaseResult{}, err
	}
	var served atomic.Uint64
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for range e.Served() {
			served.Add(1)
		}
	}()

	phase := "sustained"
	if ratePerSec > 0 {
		phase = "overload-2x"
	}
	perProducer := ops / engineProducers
	var wg sync.WaitGroup
	var submitErr atomic.Value
	start := time.Now() //wfqlint:ignore determinism wall-clock benchmark timing, not simulation state
	for p := 0; p < engineProducers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gen, gerr := traffic.NewTagGen(traffic.ProfileBell, seed+int64(p))
			if gerr != nil {
				submitErr.Store(gerr)
				return
			}
			producerRate := ratePerSec / engineProducers
			for i := 0; i < perProducer; i++ {
				if producerRate > 0 {
					// Credit pacing: never run ahead of the offered-rate
					// budget accumulated since the phase started.
					for float64(i) > producerRate*time.Since(start).Seconds() { //wfqlint:ignore determinism wall-clock benchmark timing, not simulation state
						runtime.Gosched()
					}
				}
				if _, serr := e.Submit(gen.Sample(0, e.TagRange()-1), i); serr != nil {
					submitErr.Store(serr)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := e.Stop(); err != nil {
		return enginePhaseResult{}, err
	}
	<-consumerDone
	elapsed := time.Since(start) //wfqlint:ignore determinism wall-clock benchmark timing, not simulation state
	if v := submitErr.Load(); v != nil {
		return enginePhaseResult{}, v.(error)
	}

	st := e.StatsSnapshot()
	dropped := st.DropsRing + st.DropsRED
	res := enginePhaseResult{
		Phase:         phase,
		Policy:        st.Policy,
		Offered:       st.Submitted + dropped,
		OfferedPerSec: float64(st.Submitted+dropped) / elapsed.Seconds(),
		OpsPerSec:     float64(st.Extracted) / elapsed.Seconds(),
		Dropped:       dropped,
		Served:        served.Load(),
		P99LatencyNs:  st.LatencyP99Ns,
		MeanLatencyNs: st.LatencyMeanNs,
		Batches:       st.Batches,
		ModelSpeedup:  st.ModelSpeedup,
		ModeledMpps:   st.ModeledMpps,
	}
	if res.Offered > 0 {
		res.DropRate = float64(dropped) / float64(res.Offered)
	}
	if st.Batches > 0 {
		res.AvgBatch = float64(st.BatchedOps) / float64(st.Batches)
	}
	// The conservation invariant is part of the benchmark contract: a
	// baseline from a leaking engine would be meaningless.
	if st.Inserted != st.Extracted+st.Removed+st.FaultLost || st.Extracted != served.Load() {
		return enginePhaseResult{}, fmt.Errorf("engine conservation violated: %+v", st)
	}
	return res, nil
}
