// The run loop shared by every workload: seeded set-up, repetitions on
// fresh state until the time budget is spent, medians over the
// repetitions, and the result record.
//
//wfqlint:ignore-file determinism the benchmark harness measures host wall-clock time by design; seeded inputs and modelled counts stay deterministic and are checked for it
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// options selects one run.
type options struct {
	workload string
	seed     int64
	// seconds is the measured time budget of the run: repetitions start
	// until their measured phases add up to it.
	seconds float64
	// scale multiplies every workload size; 1 is the benchmark, the
	// package test uses 1/200.
	scale float64
	trace bool
	// outDir receives result and trace files and the built wfqd.
	outDir string
	// wfqdBin is the daemon built by buildWfqd before any timer starts.
	wfqdBin string
}

// n scales a full-size count, never below min.
func (o options) n(full, min int) int {
	v := int(math.Round(float64(full) * o.scale))
	if v < min {
		v = min
	}
	return v
}

// sample is what one repetition measured.
type sample struct {
	// setupS is construction done per repetition (engine New+Start,
	// wfqd exec-to-listening, scheduler.New, queue fill); it is added
	// to setup_s, not to the measured phase.
	setupS float64
	// wallS, cpuS and mallocs cover the measured phase: first submit to
	// last delivery.
	wallS   float64
	cpuS    float64
	mallocs uint64
	// offered entries entered the system; served ones left it exactly
	// once and correct (delivered, or removed at the caller's request).
	offered int
	served  int
	// Latency quantiles of the repetition, see README for what is
	// timed on each workload.
	p50us, p90us float64
	// cycles is the busiest lane's modelled clock over the measured
	// phase.
	cycles uint64
	// childRSSMB is the peak resident set of the child process, for
	// workloads that run the system in one; in-process workloads leave
	// it 0.
	childRSSMB float64
	// exact holds counts that are a function of the seed alone.
	exact map[string]float64
	// extra holds ungated host-dependent values worth printing.
	extra map[string]float64
	// layers holds per-layer values; only traced repetitions fill it.
	layers map[string]float64
}

// workload is one benchmark workload bound to its options.
type workload interface {
	// setup generates the seeded inputs and any state repetitions
	// share. It is timed into setup_s and must not depend on anything
	// but the options.
	setup() error
	// rep runs one repetition. tr is nil on untraced repetitions. A
	// failed correctness check is returned as an error.
	rep(tr *tracer) (sample, error)
	// finish runs end-of-run checks on shared state and returns how
	// many entries they found lost.
	finish() (lost int, err error)
}

// spec describes a workload to the harness.
type spec struct {
	name string
	why  string
	// sampleOne is the traced pass's sampling: one request in sampleOne
	// gets spans.
	sampleOne int
	// sequential marks workloads in which nothing depends on goroutine
	// interleaving, so their modelled counts repeat bit for bit for a
	// seed.
	sequential bool
	// identicalReps marks workloads whose repetitions replay the same
	// inputs on fresh state, so their exact counts must agree.
	identicalReps bool
	make          func(o options) workload
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostFacts are recorded with every result.
type hostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// result is the record of one run, written to out/result-*.json and
// summarised in the last line of standard output.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Scale     float64           `json:"scale"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Error     string            `json:"error,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Reps      int               `json:"repetitions"`
	Metrics   map[string]metric `json:"metrics"`
	// RepValues holds each wall-clock metric's value in every plain
	// repetition, in order, for reading a run's noise afterwards.
	RepValues map[string][]float64 `json:"rep_values,omitempty"`
	Exact     map[string]float64   `json:"exact,omitempty"`
	Extra     map[string]float64   `json:"extra,omitempty"`
	Host      hostFacts            `json:"host"`
}

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 3

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// run executes one workload and returns its result. A failed
// correctness check is reported in the result (Correct false, Error
// set), not as an error; the error return is for a harness that could
// not run at all.
func run(o options) (*result, error) {
	sp, ok := findSpec(o.workload)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", o.workload)
	}
	res := &result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Traced: o.trace,
		Metrics: map[string]metric{},
		Host: hostFacts{
			NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		},
	}
	fail := func(err error) (*result, error) {
		res.Correct = false
		res.Error = err.Error()
		if res.Attempted == 0 {
			res.Attempted = 1
		}
		if res.Failed == 0 {
			res.Failed = 1
		}
		return res, nil
	}

	// One repetition at a tenth of the size, discarded, lets the runtime
	// grow its heap and thread pool and the caches fill before timing.
	warm := o
	warm.scale = o.scale / 10
	ww := sp.make(warm)
	if err := ww.setup(); err != nil {
		return nil, fmt.Errorf("bench: %s: warm-up set-up: %w", o.workload, err)
	}
	if _, err := ww.rep(nil); err != nil {
		return fail(fmt.Errorf("%s: warm-up: %w", o.workload, err))
	}
	if _, err := ww.finish(); err != nil {
		return fail(fmt.Errorf("%s: warm-up: %w", o.workload, err))
	}

	var w workload
	var setupTimes []float64
	for i := 0; i < setupReps; i++ {
		w = nil
		runtime.GC()
		w = sp.make(o)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("bench: %s: set-up: %w", o.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}

	var plain, traced []sample
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// The traced pass spends half the budget on the workload (plain and
	// traced repetitions alternating, so the two see the same host) and
	// leaves the rest to the ladder.
	budget := o.seconds
	if o.trace {
		budget = o.seconds / 2
	}
	measured := 0.0
	for i := 0; ; i++ {
		var s sample
		var err error
		runtime.GC()
		if o.trace && i%2 == 1 {
			s, err = w.rep(tr)
			traced = append(traced, s)
		} else {
			s, err = w.rep(nil)
			plain = append(plain, s)
		}
		res.Attempted += s.offered
		res.Failed += s.offered - s.served
		if err != nil {
			return fail(fmt.Errorf("%s: repetition %d: %w", o.workload, i+1, err))
		}
		measured += s.wallS
		done := measured+s.wallS/2 >= budget
		if o.trace {
			done = done && len(traced) == len(plain)
		}
		if done {
			break
		}
	}
	res.Reps = len(plain) + len(traced)
	lost, err := w.finish()
	res.Failed += lost
	if err != nil {
		return fail(fmt.Errorf("%s: end-of-run check: %w", o.workload, err))
	}
	if res.Failed != 0 {
		return fail(fmt.Errorf("%s: %d of %d entries not delivered exactly once", o.workload, res.Failed, res.Attempted))
	}
	if sp.identicalReps {
		all := append(append([]sample(nil), plain...), traced...)
		for i := 1; i < len(all); i++ {
			if err := sameExact(all[0].exact, all[i].exact); err != nil {
				return fail(fmt.Errorf("%s: repetition %d is not a replay of repetition 1: %w", o.workload, i+1, err))
			}
		}
	}
	res.Correct = true
	res.Exact = plain[0].exact

	e2e, repValues, err := endToEnd(setupTimes, plain)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", o.workload, err)
	}
	res.RepValues = repValues
	res.Extra = medianMaps(plain, func(s sample) map[string]float64 { return s.extra })
	if plain[0].childRSSMB == 0 { // a child process's allocations cannot be read
		res.Extra["allocs_per_kpkt"] = median(mapSamples(plain, allocsPerKpkt))
	}
	if !o.trace {
		res.Metrics = e2e
		return res, nil
	}

	layers := medianMaps(traced, func(s sample) map[string]float64 { return s.layers })
	ladder, err := runLadder(o)
	if err != nil {
		return fail(fmt.Errorf("%s: ladder: %w", o.workload, err))
	}
	for k, v := range ladder {
		layers[k] = v
	}
	// A sequential workload's own worst operation replaces the ladder's.
	if v, ok := res.Exact["worst_op_accesses"]; ok {
		layers["core.worst_op_accesses"] = v
	}
	over := func(ss []sample, f func(sample) float64) float64 { return median(mapSamples(ss, f)) }
	perPkt := func(s sample) float64 { return s.wallS / float64(s.served) }
	if base := over(plain, perPkt); base > 0 {
		layers["bench.trace_overhead_frac"] = (over(traced, perPkt) - base) / base
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layers["proc.peak_rss_mb"] = e2e["peak_rss_mb"].Value
	layers["proc.gc_pause_ms_total"] = float64(ms.PauseTotalNs) / 1e6
	layers["proc.cpu_util"] = over(traced, func(s sample) float64 { return s.cpuS / s.wallS })
	layers["proc.allocs_per_kpkt"] = over(traced, allocsPerKpkt)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
	}
	for k := range layers {
		if _, ok := res.Metrics[k]; !ok {
			return nil, fmt.Errorf("bench: %s: per-layer metric %q is not declared", o.workload, k)
		}
	}
	path := filepath.Join(o.outDir, "trace-"+o.workload+".json")
	if err := tr.write(path, o.workload, o.seed, sp.sampleOne); err != nil {
		return nil, err
	}
	res.Extra["trace_spans"] = float64(len(tr.spans))
	return res, nil
}

// endToEnd reduces the plain repetitions to the end-to-end metrics:
// each wall-clock metric is its metricDef's quantile over the
// repetitions. The second return value holds the per-repetition values.
func endToEnd(setupTimes []float64, reps []sample) (map[string]metric, map[string][]float64, error) {
	col := map[string][]float64{}
	offered, served := 0, 0
	for _, s := range reps {
		n := float64(s.served)
		col["setup_s"] = append(col["setup_s"], s.setupS)
		col["served_pps"] = append(col["served_pps"], n/s.wallS)
		col["latency_p50_us"] = append(col["latency_p50_us"], s.p50us)
		col["latency_p90_us"] = append(col["latency_p90_us"], s.p90us)
		col["cpu_s_per_mpkt"] = append(col["cpu_s_per_mpkt"], s.cpuS/n*1e6)
		col["modeled_cycles_per_pkt"] = append(col["modeled_cycles_per_pkt"], float64(s.cycles)/n)
		if s.childRSSMB > 0 {
			col["peak_rss_mb"] = append(col["peak_rss_mb"], s.childRSSMB)
		}
		offered += s.offered
		served += s.served
	}
	if col["peak_rss_mb"] == nil {
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, nil, err
		}
		col["peak_rss_mb"] = []float64{rss}
	}
	out := map[string]metric{}
	for _, m := range endToEndMetrics {
		if v, ok := col[m.name]; ok {
			out[m.name] = metric{Value: quantileF(v, m.pick), Unit: m.unit}
		}
	}
	setup := out["setup_s"]
	setup.Value += median(setupTimes)
	out["setup_s"] = setup
	out["delivered_frac"] = metric{Value: float64(served) / float64(offered), Unit: "ratio"}
	return out, col, nil
}

func allocsPerKpkt(s sample) float64 { return float64(s.mallocs) / float64(s.served) * 1000 }

// mapSamples applies f to every sample.
func mapSamples(ss []sample, f func(sample) float64) []float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = f(s)
	}
	return v
}

// medianMaps takes, key by key, the median over the samples' maps.
func medianMaps(ss []sample, pick func(sample) map[string]float64) map[string]float64 {
	col := map[string][]float64{}
	for _, s := range ss {
		for k, v := range pick(s) {
			col[k] = append(col[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range col {
		out[k] = median(v)
	}
	return out
}

// sameExact reports the first key on which two exact-count maps differ.
func sameExact(a, b map[string]float64) error {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(a) != len(b) {
		return fmt.Errorf("%d exact counts against %d", len(a), len(b))
	}
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Errorf("%s: %v against %v", k, a[k], b[k])
		}
	}
	return nil
}

// summaryLine is the contract's last line of standard output.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints a result for people, then the one-line JSON summary.
func report(w io.Writer, r *result) error {
	fmt.Fprintf(w, "%s  seed %d  %d repetitions  traced %v  (%d CPUs, GOMAXPROCS %d, %s)\n",
		r.Workload, r.Seed, r.Reps, r.Traced, r.Host.NumCPU, r.Host.GoMaxProcs, r.Host.GoVersion)
	if !r.Correct {
		fmt.Fprintf(w, "  FAILED: %s\n", r.Error)
	} else {
		printMap := func(title string, m map[string]float64) {
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "  %-34s %14.6g  %s\n", k, m[k], title)
			}
		}
		names := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := r.Metrics[k]
			line := fmt.Sprintf("  %-34s %14.6g  %-7s", k, m.Value, m.Unit)
			if v := r.RepValues[k]; len(v) > 1 && !r.Traced {
				if med := median(v); med != 0 {
					line += fmt.Sprintf(" repetitions spread %.1f%%", (slices.Max(v)-slices.Min(v))/med*100)
				}
			}
			if k == "modeled_cycles_per_pkt" && m.Value > 0 {
				line += fmt.Sprintf("  (%.1f Mpps at 143.2 MHz)", 143.2/m.Value)
			}
			fmt.Fprintln(w, line)
		}
		printMap("(exact for the seed)", r.Exact)
		printMap("(not gated)", r.Extra)
	}
	line, err := json.Marshal(summaryLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(buf, v)
}

// writeJSON stores v, indented, at path.
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
