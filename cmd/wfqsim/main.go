// Command wfqsim runs the full scheduler experiments:
//
//	wfqsim -experiment fairness   — WFQ vs WF²Q vs DRR vs WRR vs FIFO
//	                                against the GPS fluid reference
//	                                (delay bounds and weighted shares)
//	wfqsim -experiment linerate   — the paper's §IV throughput analysis
//	                                plus a full-datapath run
//	wfqsim -experiment wrap       — sustained run wrapping the cyclic
//	                                12-bit tag space with section
//	                                reclamation
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"wfqsort/internal/gps"
	"wfqsort/internal/metrics"
	"wfqsort/internal/network"
	"wfqsort/internal/packet"
	"wfqsort/internal/pipeline"
	"wfqsort/internal/police"
	"wfqsort/internal/rank"
	"wfqsort/internal/scheduler"
	"wfqsort/internal/schedulers"
	"wfqsort/internal/taglist"
	"wfqsort/internal/trace"
	"wfqsort/internal/traffic"
	"wfqsort/internal/wfq"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wfqsim:", err)
		os.Exit(1)
	}
}

func run() error {
	experiment := flag.String("experiment", "fairness", "fairness, linerate, wrap, memtech, or endtoend")
	count := flag.Int("packets", 400, "packets per flow")
	capacity := flag.Float64("capacity", 1e6, "link capacity in bits/s")
	seed := flag.Int64("seed", 1, "workload seed")
	algorithm := flag.String("algorithm", "wfq", "tag computation: wfq or scfq")
	dump := flag.String("dump", "", "write departure records as CSV to this file (linerate experiment)")
	hist := flag.Bool("hist", false, "show VoIP delay histograms in the fairness experiment")
	flag.Parse()
	dumpPath = *dump
	showHist = *hist

	var prog rank.Program
	var err error
	switch *algorithm {
	case "wfq":
		prog, err = rank.NewWFQ(linerateWeights, *capacity)
	case "scfq":
		prog, err = rank.NewSCFQ(linerateWeights, *capacity)
	default:
		return fmt.Errorf("unknown algorithm %q", *algorithm)
	}
	if err != nil {
		return err
	}

	switch *experiment {
	case "fairness":
		return fairness(*count, *capacity, *seed)
	case "linerate":
		return linerate(*count, *capacity, *seed, prog)
	case "wrap":
		return wraparound(*count, *capacity)
	case "memtech":
		return memtech()
	case "endtoend":
		return endToEnd(*count)
	case "profile":
		return tagProfiles(*seed)
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
}

// tagProfiles renders the Fig. 6 new-tag distribution shapes: the bell
// curve of a diverse mix and the left-weighted streaming/VoIP profile.
func tagProfiles(seed int64) error {
	fmt.Println("Fig. 6 — distribution of new tag values across the active window")
	for _, p := range []traffic.TagProfile{traffic.ProfileLeftWeighted, traffic.ProfileBell, traffic.ProfileUniform} {
		gen, err := traffic.NewTagGen(p, seed)
		if err != nil {
			return err
		}
		h, err := metrics.NewHistogram(0, 1000, 12)
		if err != nil {
			return err
		}
		for i := 0; i < 20000; i++ {
			h.Add(float64(gen.Sample(0, 1000)))
		}
		fmt.Printf("\n%s profile (window position 0 = current lowest tag):\n%s", p, h.Render(44))
	}
	return nil
}

// endToEnd runs the multi-hop Parekh–Gallager experiment: a shaped voice
// flow across three congested hops under WFQ vs FIFO.
func endToEnd(count int) error {
	const capacity = 2e6
	bucket := police.Bucket{RateBps: 64e3, BurstBits: 4000}
	voice, err := traffic.NewCBR(0, 64e3, 160, count, 0)
	if err != nil {
		return err
	}
	bulk, err := traffic.NewOnOff(1, 1500, 0.05, 0.04, traffic.FixedSize(1500), count*2, 1)
	if err != nil {
		return err
	}
	pkts, err := traffic.Merge(voice, bulk)
	if err != nil {
		return err
	}
	shaped, err := police.ShapeTrace(pkts, map[int]police.Bucket{0: bucket})
	if err != nil {
		return err
	}
	weights := []float64{0.1, 0.9}
	caps := []float64{capacity, capacity, capacity}
	bound, err := network.WFQEndToEndBound(bucket.BurstBits, 160*8, weights[0]*capacity, caps, 1500*8)
	if err != nil {
		return err
	}
	fmt.Printf("End-to-end QoS (paper §I-B): shaped voice across %d congested hops\n", len(caps))
	fmt.Printf("Parekh–Gallager bound: %.1f ms\n\n", bound*1e3)
	for _, tc := range []struct {
		name string
		mk   func() (schedulers.Discipline, error)
	}{
		{"WFQ", func() (schedulers.Discipline, error) { return schedulers.NewWFQ(weights, capacity) }},
		{"FIFO", func() (schedulers.Discipline, error) { return schedulers.NewFIFO(), nil }},
	} {
		var hopList []network.Hop
		for range caps {
			hopList = append(hopList, network.Hop{Name: tc.name, CapacityBps: capacity, NewDiscipline: tc.mk})
		}
		path, err := network.NewPath(hopList...)
		if err != nil {
			return err
		}
		res, err := path.Run(shaped)
		if err != nil {
			return err
		}
		var delays []float64
		for _, p := range shaped {
			if p.Flow == 0 {
				delays = append(delays, res.EndToEnd[p.ID])
			}
		}
		st := metrics.Summarize(delays)
		fmt.Printf("%-5s voice end-to-end max %8.2f ms  within bound: %v\n", tc.name, st.Max*1e3, st.Max <= bound)
	}
	return nil
}

// memtech prints the §III-C memory-technology throughput options.
func memtech() error {
	fmt.Printf("Tag-store memory technology (paper §III-C: \"QDRII and RLD RAM\nversions are also under development\"), at the %.1f MHz implementation clock:\n\n",
		scheduler.DefaultClockHz/1e6)
	for _, tech := range []taglist.MemTech{taglist.TechSDR, taglist.TechQDRII, taglist.TechRLDRAM} {
		s, err := scheduler.New(scheduler.Config{
			Weights:     []float64{1},
			CapacityBps: 40e9,
			MemTech:     tech,
		})
		if err != nil {
			return err
		}
		cycles, err := tech.WindowCyclesFor()
		if err != nil {
			return err
		}
		fmt.Printf("  %-10s %d-cycle window → %5.1f Mpps → %6.1f Gb/s @140 B\n",
			tech, cycles, s.SupportedPPS()/1e6, s.SupportedLineRate(140)/1e9)
	}
	return nil
}

// workload builds the motivating mix: one VoIP flow, one video flow, and
// two greedy best-effort data flows that oversubscribe the link, so the
// disciplines' bandwidth allocation policies are actually exercised.
func workload(count int, seed int64) ([]packet.Packet, []float64, error) {
	voip, err := traffic.NewCBR(0, 64e3, 80, count, 0)
	if err != nil {
		return nil, nil, err
	}
	video, err := traffic.NewCBR(1, 3e5, 1000, count/2, 0.0002)
	if err != nil {
		return nil, nil, err
	}
	data1, err := traffic.NewPoisson(2, 400, traffic.IMIX{}, count, seed)
	if err != nil {
		return nil, nil, err
	}
	data2, err := traffic.NewOnOff(3, 4000, 0.02, 0.02, traffic.IMIX{}, count, seed+1)
	if err != nil {
		return nil, nil, err
	}
	pkts, err := traffic.Merge(voip, video, data1, data2)
	if err != nil {
		return nil, nil, err
	}
	return pkts, []float64{0.2, 0.4, 0.2, 0.2}, nil
}

func fairness(count int, capacity float64, seed int64) error {
	pkts, weights, err := workload(count, seed)
	if err != nil {
		return err
	}
	ref, err := gps.Simulate(pkts, weights, capacity)
	if err != nil {
		return err
	}
	wfqD, err := schedulers.NewWFQ(weights, capacity)
	if err != nil {
		return err
	}
	wf2qD, err := schedulers.NewWF2Q(weights, capacity)
	if err != nil {
		return err
	}
	wf2qp, err := schedulers.NewWF2QPlus(weights, capacity)
	if err != nil {
		return err
	}
	drr, err := schedulers.NewDRR([]int{300, 600, 300, 300})
	if err != nil {
		return err
	}
	wrr, err := schedulers.NewWRR([]int{1, 2, 1, 1})
	if err != nil {
		return err
	}
	srr, err := schedulers.NewSRR(weights)
	if err != nil {
		return err
	}
	disciplines := []schedulers.Discipline{wfqD, wf2qD, wf2qp, drr, srr, wrr, schedulers.NewFIFO()}

	bound := wfq.DelayBound(1500*8, capacity)
	fmt.Printf("QoS comparison — %d packets, %d flows, C=%.0f b/s, GPS bound Lmax/C=%.2g s\n\n",
		len(pkts), len(weights), capacity, bound)
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "discipline\tmax GPS lag (s)\twithin bound\tVoIP max delay (s)\tJain index")
	for _, d := range disciplines {
		deps, err := schedulers.Run(pkts, d, capacity)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name(), err)
		}
		lag, err := metrics.MaxGPSLag(deps, ref.Finish)
		if err != nil {
			return err
		}
		delays, err := metrics.QueueingDelays(deps, len(weights))
		if err != nil {
			return err
		}
		voip := metrics.Summarize(delays[0])
		// Measure shares early, while the bursts keep the link
		// contended — once the system drains, every work-conserving
		// discipline has served the same totals.
		horizon := deps[len(deps)-1].Finish * 0.2
		shares, err := metrics.ThroughputShares(deps, len(weights), horizon)
		if err != nil {
			return err
		}
		jain, err := metrics.JainIndex(shares, weights)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%.3g\t%v\t%.3g\t%.3f\n", d.Name(), lag, lag <= bound+1e-9, voip.Max, jain)
		if showHist {
			h, err := metrics.NewHistogram(0, voip.Max*1.01+1e-9, 10)
			if err != nil {
				return err
			}
			for _, dl := range delays[0] {
				h.Add(dl)
			}
			histograms = append(histograms, fmt.Sprintf("\n%s VoIP delay distribution (s):\n%s", d.Name(), h.Render(40)))
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	for _, h := range histograms {
		fmt.Print(h)
	}
	return nil
}

// histograms collects rendered per-discipline delay histograms when
// -hist is set.
var histograms []string

// showHist toggles histogram output for the fairness experiment.
var showHist bool

// linerateWeights are the session weights of the linerate experiment.
var linerateWeights = []float64{0.2, 0.4, 0.2, 0.2}

func linerate(count int, capacity float64, seed int64, prog rank.Program) error {
	s, err := scheduler.New(scheduler.Config{
		Weights:     linerateWeights,
		CapacityBps: capacity,
		Program:     prog,
	})
	if err != nil {
		return err
	}
	fmt.Printf("Throughput model (paper §IV):\n")
	fmt.Printf("  clock %.1f MHz / %d-cycle window = %.1f Mpps\n",
		scheduler.DefaultClockHz/1e6, 4, s.SupportedPPS()/1e6)
	for _, size := range []float64{64, 140, 340, 1500} {
		fmt.Printf("  at %4.0f-byte packets: %6.1f Gb/s\n", size, s.SupportedLineRate(size)/1e9)
	}

	// Pipeline balance (paper §III-A): tree levels + translation table
	// matched to the tag-store window.
	pipe, err := pipeline.Datapath(3, 4)
	if err != nil {
		return err
	}
	pres, err := pipe.Simulate(10000)
	if err != nil {
		return err
	}
	fmt.Printf("\nPipeline balance: latency %d cycles, initiation interval %d → %.3f tags/cycle\n",
		pres.Latency, pres.Interval, pres.ThroughputOpsPerCycle())

	pkts, weights, err := workload(count, seed)
	if err != nil {
		return err
	}
	_ = weights
	res, err := s.Run(pkts)
	if err != nil {
		return err
	}
	fmt.Printf("\nFull datapath run: %d packets served, %d sorter windows, peak buffer %d\n",
		len(res.Departures), res.Windows, res.PeakBuffer)
	fmt.Printf("tree search depth ≤ %d node reads (fixed-time guarantee)\n", res.Sorter.TreeMaxDepth)
	fmt.Printf("service-order inversions vs exact tags: %d\n", res.Inversions)
	if dumpPath != "" {
		f, err := os.Create(dumpPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteDepartures(f, res.Departures); err != nil {
			return err
		}
		fmt.Printf("departure records written to %s\n", dumpPath)
	}
	return nil
}

// dumpPath is the optional CSV destination for the linerate run.
var dumpPath string

func wraparound(count int, capacity float64) error {
	src0, err := traffic.NewCBR(0, 0.6*capacity, 500, count*10, 0)
	if err != nil {
		return err
	}
	src1, err := traffic.NewCBR(1, 0.3*capacity, 250, count*10, 0.000013)
	if err != nil {
		return err
	}
	pkts, err := traffic.Merge(src0, src1)
	if err != nil {
		return err
	}
	s, err := scheduler.New(scheduler.Config{
		Weights:     []float64{0.6, 0.4},
		CapacityBps: capacity,
		Granularity: 1e-5,
	})
	if err != nil {
		return err
	}
	res, err := s.Run(pkts)
	if err != nil {
		return err
	}
	fmt.Printf("Cyclic tag space run (paper Fig. 6):\n")
	fmt.Printf("  %d packets served across %d reclaimed sections (%.1f wraps of the 12-bit space)\n",
		len(res.Departures), res.SectionsReclaimed, float64(res.SectionsReclaimed)/16)
	fmt.Printf("  inversions vs exact tags: %d\n", res.Inversions)
	return nil
}
