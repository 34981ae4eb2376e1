// Command bench is the repository's benchmark: eight workloads from the
// paper's Fig. 1 circuit up to the wfqd socket, each driven from
// outside through public functions (and, for wfqd, a child process over
// loopback TCP), reporting the end-to-end metrics of BENCHMARK.json on
// an untraced run and the per-layer metrics and ladder on a traced one.
//
//	go run -C bench wfqsort/bench [-workload <name>|all] [-seed N] [-seconds S] [-trace 0|1]
//	go run -C bench wfqsort/bench -selfcheck
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. README.md in
// this directory describes every workload and metric.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// specs lists the workloads; the names are cited by later issues and
// repeated, with the reasons, in BENCHMARK.json.
var specs = []spec{
	{
		name: "fig1-hw", sampleOne: 1, sequential: true, identicalReps: true, make: newFig1,
		why: "the paper's Fig. 1 scheduler in hardware mode with a standing backlog of thousands: the only workload where scheduler dominates and host speed falls with backlog while modelled cycles stay fixed",
	},
	{
		name: "pq-replay", sampleOne: seqSampleOne, sequential: true, identicalReps: true, make: newPQReplay,
		why: "insert+extract pairs through pqueue.Sharded(4) at the 12-bit silicon geometry against a heap oracle: isolates pqueue, sharded and core; engine and wfqd are idle",
	},
	{
		name: "timers-churn", sampleOne: seqSampleOne, sequential: true, make: newTimers,
		why: "31k live timers on the 20-bit five-level geometry, 60% Remove and 40% ExtractMin each paired with a re-arm: the same core layer with removal, deep trees and long duplicate groups",
	},
	{
		name: "engine-sat", sampleOne: engineSampleOne, make: newEngineLoad(engineSpec{cfg: engineSatCfg}),
		why: "one producer saturating the 4-lane engine closed-loop: capacity of rings, batches, merge and latency bookkeeping, where core is about a quarter of the per-packet CPU",
	},
	{
		name: "engine-churn", sampleOne: engineSampleOne, make: newEngineLoad(engineSpec{cfg: engineChurnCfg, churn: true}),
		why: "engine-sat with every 8th packet later cancelled or reweighted: the control ring, slot lookup and Remove/Rerank beside the data plane, which a Submit-path gain can cost",
	},
	{
		name: "engine-paced-lo", sampleOne: engineSampleOne, make: newEngineLoad(engineSpec{cfg: engineSatCfg, pps: 200_000}),
		why: "open loop at 200k pps in sleeping bursts, about 20% utilisation: wake-up-dominated latency that throughput optimisations should not move",
	},
	{
		name: "engine-paced-hi", sampleOne: engineSampleOne, make: newEngineLoad(engineSpec{cfg: engineSatCfg, pps: 500_000}),
		why: "open loop at 500k pps, about 50% utilisation: queueing- and batching-dominated latency, so batching that helps engine-sat and hurts paced-lo shows on the pair",
	},
	{
		name: "wfqd-tcp", sampleOne: wfqdSample, make: newWfqdLoad,
		why: "wfqd as a child process fed lines by two windowed clients over loopback TCP: line parsing, per-line reply writes and the rank lock, a rung far below engine-sat that engine gains should not move",
	},
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	o := options{scale: 1}
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass: per-layer metrics, spans and the ladder")
	flag.StringVar(&o.outDir, "out", "out", "directory for results, traces and the built wfqd")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced suite twice and compare the two against the bounds")
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %v must be positive", o.seconds)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	switch {
	case *selfcheck:
		return runSelfcheck(o)
	case o.workload == "all":
		results, err := runAll(o)
		if err != nil {
			return err
		}
		return writeJSON(filepath.Join(o.outDir, "results.json"), results)
	}
	if _, ok := findSpec(o.workload); !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.workload == "wfqd-tcp" || o.trace {
		bin, err := buildWfqd(o.outDir)
		if err != nil {
			return err
		}
		o.wfqdBin = bin
	}
	res, err := run(o)
	if err != nil {
		return err
	}
	if err := writeJSON(resultPath(o.outDir, o.workload), res); err != nil {
		return err
	}
	if err := report(os.Stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: correctness check failed", o.workload)
	}
	return nil
}

func resultPath(outDir, workload string) string {
	return filepath.Join(outDir, "result-"+workload+".json")
}

// runAll runs every workload in a process of its own, so heap, GC state
// and peak RSS do not leak from one workload into the next, and returns
// the results in workload order.
func runAll(o options) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []*result
	for _, sp := range specs {
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.Command(self,
			"-workload", sp.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", trace, "-out", o.outDir)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		var res result
		if err := readJSON(resultPath(o.outDir, sp.name), &res); err != nil {
			return nil, fmt.Errorf("%s: %v (run: %v)", sp.name, err, runErr)
		}
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, runErr)
		}
		results = append(results, &res)
	}
	return results, nil
}
