// The ladder of the traced pass: one seeded 12-bit, backlog-2048,
// bell-profile script pushed through each layer's public API alone,
// from matcher.Closest up to a wfqd socket, giving host time per
// operation per rung and, by difference, each rung's own cost.
//
//wfqlint:ignore-file determinism the benchmark harness measures host wall-clock time by design; seeded inputs and modelled counts stay deterministic and are checked for it
package main

import (
	"fmt"
	"math"
	"time"

	"wfqsort/internal/core"
	"wfqsort/internal/matcher"
	"wfqsort/internal/membus"
	"wfqsort/internal/packet"
	"wfqsort/internal/pqueue"
	"wfqsort/internal/rank"
	"wfqsort/internal/ring"
	"wfqsort/internal/sharded"
	"wfqsort/internal/taglist"
	"wfqsort/internal/transtable"
	"wfqsort/internal/trie"
	"wfqsort/internal/wfq"
)

const (
	ladderFill     = 2048
	ladderPairs    = 100_000
	ladderCapacity = 4096
	ladderPasses   = 3 // each rung runs this often; its value is the median
	ladderArrivals = 50_000
	ladderLinesDiv = 10 // the wfqd rung sends ladderPairs/ladderLinesDiv lines
	// removePayload offsets the payloads of entries a probe inserts only
	// to remove again, clear of every payload the pair script uses.
	removePayload = 0x20000
)

// sink keeps the compiler from discarding probe results.
var sink int

// ladderScript is the shared op script: script[:ladderFill] builds the
// backlog, every later tag is one insert paired with one extract.
type ladderScript struct {
	tags  []int32
	pairs int
}

// perOp times fn over n operations and returns nanoseconds per
// operation.
func perOp(n int, fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(n), err
}

// runLadder replays the script through every rung and returns the leaf
// layers' per-layer metrics and the six ladder numbers.
func runLadder(o options) (map[string]float64, error) {
	tags, err := bellTags(o.seed, ladderFill+o.n(ladderPairs, 4*opChunk))
	if err != nil {
		return nil, err
	}
	sc := ladderScript{tags: tags, pairs: len(tags) - ladderFill}
	rungs := []func(ladderScript, options) (map[string]float64, error){
		probeTraffic, probeMatcher, probeTrie, probeTable, probeTaglist, probeMembus,
		probeCore, probeCoreOps, probeSharded, probePQueue, probeHWStore, probeRing,
		probeEngine, probeWfqd,
	}
	col := map[string][]float64{}
	for pass := 0; pass < ladderPasses; pass++ {
		for _, rung := range rungs {
			m, err := rung(sc, o)
			if err != nil {
				return nil, err
			}
			for k, v := range m {
				col[k] = append(col[k], v)
			}
		}
	}
	out := map[string]float64{}
	for k, v := range col {
		out[k] = median(v)
	}
	out["ladder.core_ns"] = out["core.pair_ns"]
	out["ladder.sharded_self_ns"] = out["sharded.pair_ns"] - out["core.pair_ns"]
	out["ladder.pqueue_self_ns"] = out["pqueue.sharded_pair_ns"] - out["sharded.pair_ns"]
	out["ladder.rank_self_ns"] = out["rank.hwstore_pair_ns"] - out["pqueue.sharded_pair_ns"]
	out["ladder.engine_self_ns"] = out["engine.pkt_ns"] - out["sharded.pair_ns"]
	out["ladder.wfqd_self_ns"] = out["wfqd.line_ns"] - out["engine.pkt_ns"]
	// Rung totals that only feed the differences are not metrics.
	delete(out, "core.pair_ns")
	delete(out, "engine.pkt_ns")
	delete(out, "wfqd.line_ns")
	return out, nil
}

// probeTraffic generates the Fig. 1 arrival trace and runs the two tag
// computations, the float WFQ clock and the SCFQ rank program, over it.
func probeTraffic(_ ladderScript, o options) (map[string]float64, error) {
	var arr []packet.Packet
	n := o.n(ladderArrivals, 2000)
	genNs, err := perOp(n, func() (err error) {
		arr, err = sawtoothArrivals(o.seed, n)
		return err
	})
	if err != nil {
		return nil, err
	}
	weights := fig1Weights()
	clock, err := wfq.NewClock(weights, fig1CapBps)
	if err != nil {
		return nil, err
	}
	tagNs, err := perOp(len(arr), func() error {
		for _, p := range arr {
			_, f, err := clock.Tag(p.Flow, p.Bits(), p.Arrival)
			if err != nil {
				return err
			}
			sink += int(f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	prog, err := rank.NewSCFQ(weights, fig1CapBps)
	if err != nil {
		return nil, err
	}
	rankNs, err := perOp(len(arr), func() error {
		for _, p := range arr {
			r, err := prog.Rank(p, p.Arrival)
			if err != nil {
				return err
			}
			prog.OnServe(p, r, p.Arrival)
		}
		return nil
	})
	return map[string]float64{
		"traffic.gen_ns_per_pkt": genNs,
		"wfq.tag_ns":             tagNs,
		"rank.rank_ns":           rankNs,
	}, err
}

func probeMatcher(sc ladderScript, _ options) (map[string]float64, error) {
	ns, err := perOp(len(sc.tags), func() error {
		for _, t := range sc.tags {
			// A 16-bit node word and a target literal, both from the tag.
			word := uint64(t)*0x9E37 ^ uint64(t)>>3
			m := matcher.Closest(word&0xFFFF, int(t)&15, 16)
			sink += m.Primary + m.Backup
		}
		return nil
	})
	return map[string]float64{"matcher.closest_ns": ns}, err
}

// probeTrie slides a window of ladderFill live tags over the script:
// each step marks the entering tag, searches for it and unmarks the
// leaving one, the three phases timed in chunks.
func probeTrie(sc ladderScript, _ options) (map[string]float64, error) {
	t, err := trie.New(trie.DefaultConfig())
	if err != nil {
		return nil, err
	}
	live := make([]int, ladderCapacity) // reference count per tag value
	for _, tag := range sc.tags[:ladderFill] {
		if _, err := t.Insert(int(tag)); err != nil {
			return nil, err
		}
		live[tag]++
	}
	t.ResetStats()
	var insNs, searchNs, delNs time.Duration
	dels := 0
	for base := 0; base+opChunk <= sc.pairs; base += opChunk {
		in := sc.tags[ladderFill+base : ladderFill+base+opChunk]
		out := sc.tags[base : base+opChunk]
		a := time.Now()
		for _, tag := range in {
			if _, err := t.Insert(int(tag)); err != nil {
				return nil, err
			}
			live[tag]++
		}
		b := time.Now()
		for _, tag := range in {
			r, err := t.SearchClosest(int(tag))
			if err != nil {
				return nil, err
			}
			sink += r.Closest
		}
		c := time.Now()
		for _, tag := range out {
			if live[tag]--; live[tag] > 0 {
				continue
			}
			if err := t.Delete(int(tag)); err != nil {
				return nil, err
			}
			dels++
		}
		insNs, searchNs, delNs = insNs+b.Sub(a), searchNs+c.Sub(b), delNs+time.Since(c)
	}
	st := t.Stats()
	n := float64(sc.pairs / opChunk * opChunk)
	return map[string]float64{
		"trie.insert_ns":             float64(insNs.Nanoseconds()) / n,
		"trie.search_ns":             float64(searchNs.Nanoseconds()) / n,
		"trie.delete_ns":             float64(delNs.Nanoseconds()) / math.Max(1, float64(dels)),
		"trie.node_reads_per_search": float64(st.NodeReads) / float64(st.Searches),
	}, nil
}

func probeTable(sc ladderScript, _ options) (map[string]float64, error) {
	tb, err := transtable.New(12, 12, membus.New(nil))
	if err != nil {
		return nil, err
	}
	ns, err := perOp(2*len(sc.tags), func() error {
		for i, t := range sc.tags {
			if err := tb.Set(int(t), i&(ladderCapacity-1)); err != nil {
				return err
			}
			addr, _, err := tb.Lookup(int(t))
			if err != nil {
				return err
			}
			sink += addr
		}
		return nil
	})
	return map[string]float64{"transtable.access_ns": ns}, err
}

// probeTaglist drives the tag store's simultaneous insert+extract
// window alone: the new tag always goes after the tail, which needs no
// tree to locate.
func probeTaglist(sc ladderScript, _ options) (map[string]float64, error) {
	l, err := taglist.New(taglist.Config{Capacity: ladderCapacity, TagBits: 12})
	if err != nil {
		return nil, err
	}
	tail, err := l.InsertHead(0, 0)
	if err != nil {
		return nil, err
	}
	for i := 1; i < ladderFill; i++ {
		if tail, err = l.InsertAfter(i, i, tail); err != nil {
			return nil, err
		}
	}
	l.ResetStats()
	ns, err := perOp(sc.pairs, func() error {
		for i := 0; i < sc.pairs; i++ {
			e, addr, err := l.InsertAfterExtractMin(ladderCapacity-1, i&0xFFFF, tail)
			if err != nil {
				return err
			}
			tail = addr
			sink += e.Tag
		}
		return nil
	})
	return map[string]float64{
		"taglist.window_ns":           ns,
		"taglist.accesses_per_window": float64(l.MemStats().Accesses()) / float64(l.Windows()),
	}, err
}

// probeMembus runs the tag store's 2-read/2-write window on a bare
// fabric port.
func probeMembus(sc ladderScript, _ options) (map[string]float64, error) {
	r, err := membus.New(nil).Provision(membus.RegionConfig{Name: "probe", Depth: ladderCapacity, WordBits: 48})
	if err != nil {
		return nil, err
	}
	p := r.Port()
	ns, err := perOp(4*sc.pairs, func() error {
		for i, t := range sc.tags[:sc.pairs] {
			a, b := int(t), i&(ladderCapacity-1)
			r.BeginWindow()
			x, err1 := p.Read(a)
			y, err2 := p.Read(b)
			err3 := p.Write(a, y+1)
			err4 := p.Write(b, x+1)
			r.EndWindow()
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return fmt.Errorf("membus probe: %v %v %v %v", err1, err2, err3, err4)
			}
		}
		return nil
	})
	return map[string]float64{"membus.access_ns": ns}, err
}

// pairQueue is what the insert+extract rungs need of a sorter.
type pairQueue interface {
	Insert(tag, payload int) error
}

// fillScript inserts the script's backlog.
func fillScript(q pairQueue, sc ladderScript) error {
	for i, t := range sc.tags[:ladderFill] {
		if err := q.Insert(int(t), i); err != nil {
			return err
		}
	}
	return nil
}

// probeCore is the core.Sorter rung: insert+extract pairs, with the
// modelled counters the circuit keeps.
func probeCore(sc ladderScript, _ options) (map[string]float64, error) {
	s, err := core.New(core.Config{Capacity: ladderCapacity})
	if err != nil {
		return nil, err
	}
	if err := fillScript(s, sc); err != nil {
		return nil, err
	}
	s.ResetStats()
	s.Fabric().ResetStats()
	clock := s.Fabric().Clock()
	var worstCycles uint64
	ns, err := perOp(sc.pairs, func() error {
		for i, t := range sc.tags[ladderFill:] {
			// The modelled clock is read around a sample of operations
			// only: it is a field load, but it is the harness's.
			var c0 uint64
			sampled := i%64 == 0
			if sampled {
				c0 = clock.Now()
			}
			if err := s.Insert(int(t), i&0xFFFF); err != nil {
				return err
			}
			if sampled {
				worstCycles = max(worstCycles, clock.Now()-c0)
				c0 = clock.Now()
			}
			e, err := s.ExtractMin()
			if err != nil {
				return err
			}
			if sampled {
				worstCycles = max(worstCycles, clock.Now()-c0)
			}
			sink += e.Tag
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := s.StatsSnapshot()
	ops := float64(st.Inserts + st.Extracts)
	store := s.Fabric().Region("tag-storage").StatsSnapshot()
	out := map[string]float64{
		"core.pair_ns":                     ns,
		"core.tree_reads_per_op":           float64(st.TreeNodeReads) / ops,
		"core.table_accesses_per_op":       float64(st.TableAccesses) / ops,
		"core.list_accesses_per_op":        float64(st.ListAccesses) / ops,
		"core.tree_max_depth":              float64(st.TreeMaxDepth),
		"core.worst_op_accesses":           float64(st.TreeMaxDepth + 1),
		"membus.taglist_conflicts_per_kop": float64(store.Conflicts) / ops * 1000,
		"membus.window_cycles_worst":       float64(worstCycles),
	}
	if busy := store.Cycles + store.StallCycles; busy > 0 {
		out["membus.taglist_stall_frac"] = float64(store.StallCycles) / float64(busy)
	}
	return out, nil
}

// probeCoreOps times the circuit's four operations apart: inserts and
// extracts in alternating chunks above the backlog, the simultaneous
// window, and insert-then-remove.
func probeCoreOps(sc ladderScript, _ options) (map[string]float64, error) {
	s, err := core.New(core.Config{Capacity: ladderCapacity})
	if err != nil {
		return nil, err
	}
	if err := fillScript(s, sc); err != nil {
		return nil, err
	}
	var insNs, extNs, remNs time.Duration
	n := 0
	for base := 0; base+opChunk <= sc.pairs; base += opChunk {
		in := sc.tags[ladderFill+base : ladderFill+base+opChunk]
		a := time.Now()
		for i, t := range in {
			if err := s.Insert(int(t), i); err != nil {
				return nil, err
			}
		}
		b := time.Now()
		for range in {
			e, err := s.ExtractMin()
			if err != nil {
				return nil, err
			}
			sink += e.Tag
		}
		c := time.Now()
		for i, t := range in {
			if err := s.Insert(int(t), removePayload+i); err != nil {
				return nil, err
			}
		}
		d := time.Now()
		for i, t := range in {
			found, err := s.Remove(int(t), removePayload+i)
			if err != nil || !found {
				return nil, fmt.Errorf("core probe: remove tag %d: found %v: %v", t, found, err)
			}
		}
		insNs, extNs, remNs = insNs+b.Sub(a), extNs+c.Sub(b), remNs+time.Since(d)
		n += opChunk
	}
	combNs, err := perOp(sc.pairs, func() error {
		for i, t := range sc.tags[ladderFill:] {
			e, err := s.InsertExtractMin(int(t), i&0xFFFF)
			if err != nil {
				return err
			}
			sink += e.Tag
		}
		return nil
	})
	return map[string]float64{
		"core.insert_ns":   float64(insNs.Nanoseconds()) / float64(n),
		"core.extract_ns":  float64(extNs.Nanoseconds()) / float64(n),
		"core.remove_ns":   float64(remNs.Nanoseconds()) / float64(n),
		"core.combined_ns": combNs,
	}, err
}

func probeSharded(sc ladderScript, _ options) (map[string]float64, error) {
	s, err := sharded.New(sharded.Config{Lanes: pqLanes, LaneCapacity: ladderCapacity / pqLanes})
	if err != nil {
		return nil, err
	}
	if err := fillScript(s, sc); err != nil {
		return nil, err
	}
	s.ResetStats()
	peakImbalance := 0.0
	ns, err := perOp(sc.pairs, func() error {
		for i, t := range sc.tags[ladderFill:] {
			if err := s.Insert(int(t), i&0xFFFF); err != nil {
				return err
			}
			e, err := s.ExtractMin()
			if err != nil {
				return err
			}
			sink += e.Tag
			if i%4096 == 0 {
				peakImbalance = math.Max(peakImbalance, imbalance(s.LaneLens()))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := s.StatsSnapshot()
	ins := make([]int, len(st.LaneInserts))
	for i, v := range st.LaneInserts {
		ins[i] = int(v)
	}
	return map[string]float64{
		"sharded.pair_ns":                  ns,
		"sharded.model_speedup":            st.ModelSpeedup(),
		"sharded.lane_insert_imbalance":    imbalance(ins),
		"sharded.peak_occupancy_imbalance": peakImbalance,
	}, nil
}

// imbalance is the largest share over the mean share (1 = even).
func imbalance(v []int) float64 {
	sum, hi := 0, 0
	for _, x := range v {
		sum += x
		hi = max(hi, x)
	}
	if sum == 0 {
		return 1
	}
	return float64(hi) * float64(len(v)) / float64(sum)
}

// probePQueue runs the pair script through the pqueue adapter over the
// plain tree and over the sharded sorter, then insert+remove pairs for
// the removal charge.
func probePQueue(sc ladderScript, _ options) (map[string]float64, error) {
	tree, err := pqueue.NewMultiBitTree(ladderCapacity)
	if err != nil {
		return nil, err
	}
	shd, err := pqueue.NewSharded(pqLanes, ladderCapacity)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, rung := range []struct {
		name string
		q    pqueue.DynamicQueue
	}{{"pqueue.tree_pair_ns", tree}, {"pqueue.sharded_pair_ns", shd}} {
		q := rung.q
		if err := fillScript(q, sc); err != nil {
			return nil, err
		}
		q.ResetStats()
		ns, err := perOp(sc.pairs, func() error {
			for i, t := range sc.tags[ladderFill:] {
				if err := q.Insert(int(t), i&0xFFFF); err != nil {
					return err
				}
				e, err := q.ExtractMin()
				if err != nil {
					return err
				}
				sink += e.Tag
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out[rung.name] = ns
	}
	for i, t := range sc.tags[ladderFill:] {
		payload := removePayload + i&0xFFFF
		if err := shd.Insert(int(t), payload); err != nil {
			return nil, err
		}
		if found, err := shd.Remove(int(t), payload); err != nil || !found {
			return nil, fmt.Errorf("pqueue probe: remove tag %d: found %v: %v", t, found, err)
		}
	}
	st := shd.Stats()
	out["pqueue.mean_insert_accesses"] = st.MeanInsert()
	out["pqueue.mean_extract_accesses"] = st.MeanExtract()
	out["pqueue.mean_remove_accesses"] = st.MeanRemove()
	return out, nil
}

// probeHWStore is the rank rung: float ranks quantised by rank.HWStore
// onto the sharded pqueue adapter.
func probeHWStore(sc ladderScript, _ options) (map[string]float64, error) {
	q, err := pqueue.NewSharded(pqLanes, ladderCapacity)
	if err != nil {
		return nil, err
	}
	hs, err := rank.NewHWStore(q, 1, ladderCapacity)
	if err != nil {
		return nil, err
	}
	push := func(seq int, tag int32) error {
		return hs.Push(rank.Item{R: rank.Ranked{Rank: float64(tag)}, Seq: seq})
	}
	// A rank-0 item first pins the store's window base at 0.
	if err := push(0, 0); err != nil {
		return nil, err
	}
	for i, t := range sc.tags[1:ladderFill] {
		if err := push(i+1, t); err != nil {
			return nil, err
		}
	}
	ns, err := perOp(sc.pairs, func() error {
		for i, t := range sc.tags[ladderFill:] {
			if err := push(ladderFill+i, t); err != nil {
				return err
			}
			it, err := hs.Pop(0)
			if err != nil {
				return err
			}
			sink += it.Seq
		}
		return nil
	})
	return map[string]float64{"rank.hwstore_pair_ns": ns}, err
}

func probeRing(sc ladderScript, _ options) (map[string]float64, error) {
	r := ring.New[int](256)
	ns, err := perOp(len(sc.tags), func() error {
		for _, t := range sc.tags {
			if !r.Push(int(t)) {
				return fmt.Errorf("ring probe: push refused on an empty ring")
			}
			v, _ := r.Pop()
			sink += v
		}
		return nil
	})
	return map[string]float64{"ring.pushpop_ns": ns}, err
}

// probeEngine is the engine rung: the whole script submitted unpaced,
// Submit to Served.
func probeEngine(sc ladderScript, o options) (map[string]float64, error) {
	w := &engineLoad{o: o, spec: engineSpec{cfg: engineSatCfg}, tags: sc.tags}
	s, err := w.rep(nil)
	if err != nil {
		return nil, fmt.Errorf("engine rung: %w", err)
	}
	return map[string]float64{"engine.pkt_ns": s.wallS / float64(s.served) * 1e9}, nil
}

// probeWfqd is the socket rung: a tenth of the script's length in
// lines, line written to line served.
func probeWfqd(sc ladderScript, o options) (map[string]float64, error) {
	o.scale *= float64(ladderPairs) / ladderLinesDiv / wfqdLines
	w := newWfqdLoad(o)
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("wfqd rung: %w", err)
	}
	s, err := w.rep(nil)
	if err != nil {
		return nil, fmt.Errorf("wfqd rung: %w", err)
	}
	return map[string]float64{"wfqd.line_ns": s.wallS / float64(s.served) * 1e9}, nil
}
