package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testOut holds the wfqd binary TestMain builds once and every file the
// tests' runs write.
var (
	testOut string
	testBin string
)

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "wfqsort-bench-test")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		testOut = dir
		if testBin, err = buildWfqd(dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}())
}

// small is every workload at 1/200 of its size.
func small(workload string, seed int64, trace bool) options {
	return options{
		workload: workload, seed: seed, seconds: 0.05, scale: 1.0 / 200,
		trace: trace, outDir: testOut, wfqdBin: testBin,
	}
}

func mustRun(t *testing.T, o options) *result {
	t.Helper()
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%s: correctness check failed: %s", o.workload, res.Error)
	}
	return res
}

// TestWorkloads runs every workload untraced and traced, correctness
// checks included, and checks that each reports exactly the declared
// metrics.
func TestWorkloads(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res := mustRun(t, small(sp.name, 1, false))
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted %d failed %d", res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEndMetrics) {
				t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(endToEndMetrics))
			}
			for _, m := range endToEndMetrics {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s: reported %+v (present %v), want unit %q", m.name, got, ok, m.unit)
				}
				if got.Value <= 0 || math.IsInf(got.Value, 0) || math.IsNaN(got.Value) {
					t.Errorf("%s = %v, want a positive finite value", m.name, got.Value)
				}
			}
			if got := res.Metrics["delivered_frac"].Value; got != 1 {
				t.Errorf("delivered_frac = %v, want 1", got)
			}

			tres := mustRun(t, small(sp.name, 1, true))
			if len(tres.Metrics) != len(perLayer) {
				t.Errorf("traced: %d metrics reported, %d declared", len(tres.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if got, ok := tres.Metrics[m.name]; !ok || got.Unit != m.unit || math.IsNaN(got.Value) {
					t.Errorf("traced: %s: reported %+v (present %v), want unit %q", m.name, got, ok, m.unit)
				}
			}
			for _, name := range []string{"ladder.core_ns", "core.insert_ns", "trie.search_ns", "ring.pushpop_ns"} {
				if tres.Metrics[name].Value <= 0 {
					t.Errorf("traced: %s = %v, want the ladder to have measured it", name, tres.Metrics[name].Value)
				}
			}
			checkTraceFile(t, filepath.Join(testOut, "trace-"+sp.name+".json"), sp.name)
		})
	}
}

// checkTraceFile checks the span file of a traced run: spans exist,
// children lie inside their parents and share their request id.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	var tf traceFile
	if err := readJSON(path, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != workload || len(tf.Spans) == 0 || len(tf.SelfTimes) == 0 {
		t.Fatalf("trace of %q has workload %q, %d spans, %d self times", workload, tf.Workload, len(tf.Spans), len(tf.SelfTimes))
	}
	byID := map[int64]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Req != s.Req || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d,%d] req %d does not nest in parent %+v", s.ID, s.Name, s.Start, s.End, s.Req, p)
		}
	}
}

// TestExactCounts checks the modelled counts of the sequential
// workloads: identical across two runs of one seed, different across
// two seeds.
func TestExactCounts(t *testing.T) {
	for _, sp := range specs {
		if !sp.sequential {
			continue
		}
		name := sp.name
		a := mustRun(t, small(name, 1, false))
		b := mustRun(t, small(name, 1, false))
		c := mustRun(t, small(name, 2, false))
		if len(a.Exact) == 0 || a.Exact["modeled_cycles_per_pkt"] <= 0 || a.Exact["worst_op_accesses"] <= 0 {
			t.Errorf("%s: exact counts %v lack the modelled cycles or the worst operation", name, a.Exact)
		}
		if !reflect.DeepEqual(a.Exact, b.Exact) {
			t.Errorf("%s: seed 1 gave %v then %v", name, a.Exact, b.Exact)
		}
		if a.Metrics["modeled_cycles_per_pkt"] != b.Metrics["modeled_cycles_per_pkt"] {
			t.Errorf("%s: modeled_cycles_per_pkt %v then %v for one seed", name,
				a.Metrics["modeled_cycles_per_pkt"], b.Metrics["modeled_cycles_per_pkt"])
		}
		if reflect.DeepEqual(a.Exact, c.Exact) {
			t.Errorf("%s: seeds 1 and 2 gave the same exact counts %v", name, a.Exact)
		}
	}
	if got := mustRun(t, small("fig1-hw", 1, false)).Exact["inversions_per_kpkt"]; got <= 0 {
		t.Errorf("fig1-hw: inversions_per_kpkt = %v, want the quantisation cost to show", got)
	}
}

// brokenLoad fails its correctness check after losing one entry.
type brokenLoad struct{}

func (brokenLoad) setup() error { return nil }
func (brokenLoad) rep(*tracer) (sample, error) {
	return sample{offered: 10, served: 9, wallS: 1}, errors.New("entry 7 never came out")
}
func (brokenLoad) finish() (int, error) { return 0, nil }

// TestFailedCheck checks that a failed correctness check is reported
// as an incorrect result with its failures counted, and that the
// summary line still has the contract's four keys.
func TestFailedCheck(t *testing.T) {
	specs = append(specs, spec{name: "broken", make: func(options) workload { return brokenLoad{} }})
	defer func() { specs = specs[:len(specs)-1] }()
	res, err := run(small("broken", 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || !strings.Contains(res.Error, "entry 7") {
		t.Fatalf("result %+v, want incorrect with one failure and the check's message", res)
	}
	var out bytes.Buffer
	if err := report(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("summary line lacks %q: %s", k, lines[len(lines)-1])
		}
	}
	if len(last) != 4 || string(last["correct"]) != "false" {
		t.Errorf("summary line %s, want four keys and correct false", lines[len(lines)-1])
	}
}

// TestSelfTime checks that a span's self time excludes its children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ns int) time.Time { return tr.t0.Add(time.Duration(ns)) }
	tr.addTree("packet", 1, []string{"engine.submit", "engine.transit"}, []time.Time{at(0), at(300), at(1000)})
	tr.add("engine.control", 0, 2, at(10), at(50))
	got := map[string]selfTime{}
	for _, s := range tr.selfTimes() {
		got[s.Name] = s
	}
	want := map[string][2]int64{ // total, self
		"packet": {1000, 0}, "engine.submit": {300, 300}, "engine.transit": {700, 700}, "engine.control": {40, 40},
	}
	for name, w := range want {
		if g := got[name]; g.TotalNs != w[0] || g.SelfNs != w[1] || g.Count != 1 {
			t.Errorf("%s: total %d self %d count %d, want total %d self %d count 1", name, g.TotalNs, g.SelfNs, g.Count, w[0], w[1])
		}
	}
}

// TestHeapOracle checks the reference order on a script small enough to
// read: exact sort, first come first served among equal tags.
func TestHeapOracle(t *testing.T) {
	// Fill {5,3,5}, then insert 3 and extract, insert 9 and extract.
	got := heapOrder([]int32{5, 3, 5, 3, 9}, 3)
	want := []int32{1, 3, 0, 2, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("extract order %v, want %v", got, want)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// declares exactly what this package runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if got := strings.Join(doc.Command, " "); got != "go run -C bench wfqsort/bench" {
		t.Errorf("command %q", got)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d run", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q declared against %q, or reasons differ", i, w.Name, specs[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range doc.EndToEnd {
		w := endToEndMetrics[i]
		if m.Name != w.name || m.Unit != w.unit || m.Better != w.better || m.Bound != w.bound || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v declared, %+v reported", i, m, w)
		}
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		w := perLayer[i]
		if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
			t.Errorf("per-layer metric %d: %+v declared, %+v reported", i, m, w)
		}
	}
}
