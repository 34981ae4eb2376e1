// pq-replay: insert+extract pairs through the pqueue adapter over the
// four-lane sharded sorter at the silicon geometry, checked against a
// binary-heap oracle.
//
//wfqlint:ignore-file determinism the benchmark harness measures host wall-clock time by design; seeded inputs and modelled counts stay deterministic and are checked for it
package main

import (
	"container/heap"
	"fmt"
	"time"

	"wfqsort/internal/pqueue"
	"wfqsort/internal/traffic"
)

const (
	pqLanes    = 4
	pqCapacity = 4096
	pqFill     = 2048
	pqPairs    = 1_000_000
	// seqSampleOne is the traced pass's sampling on the sub-microsecond
	// sequential paths: one operation in seqSampleOne gets spans.
	seqSampleOne = 64
	// opChunk is how many sequential operations share one pair of clock
	// reads; per-operation latency is the chunk's time over opChunk.
	opChunk = 256
	// silicon12Limit is the fixed-time contract at the 12-bit silicon
	// geometry in sequential accesses: three tree levels and one
	// translation read (an extract is one head access plus the two
	// select-tree levels).
	silicon12Limit = 3 + 1
)

type pqReplay struct {
	o    options
	tags []int32 // fill tags, then one per pair
	// want is the oracle's extract order (payloads), computed once.
	want []int32
}

func newPQReplay(o options) workload { return &pqReplay{o: o} }

// bellTags draws n bell-profile tags over the whole 12-bit tag space.
func bellTags(seed int64, n int) ([]int32, error) {
	gen, err := traffic.NewTagGen(traffic.ProfileBell, seed)
	if err != nil {
		return nil, err
	}
	tags := make([]int32, n)
	for i := range tags {
		tags[i] = int32(gen.Sample(0, 4095))
	}
	return tags, nil
}

func (w *pqReplay) setup() error {
	tags, err := bellTags(w.o.seed, pqFill+w.o.n(pqPairs, 4*opChunk))
	w.tags = tags
	return err
}

func (w *pqReplay) rep(tr *tracer) (sample, error) {
	pairs := len(w.tags) - pqFill
	s := sample{offered: pairs}
	t0 := time.Now()
	q, err := pqueue.NewSharded(pqLanes, pqCapacity)
	if err != nil {
		return s, err
	}
	for i := 0; i < pqFill; i++ {
		if err := q.Insert(int(w.tags[i]), i); err != nil {
			return s, err
		}
	}
	q.ResetStats()
	s.setupS = time.Since(t0).Seconds()

	got := make([]int32, 0, len(w.tags))
	chunkNs := make([]int64, 0, pairs/opChunk+1)
	sampleOne := 0
	if tr != nil {
		sampleOne = seqSampleOne
	}
	m := startMeter()
	chunkStart := m.t0
	for i := 0; i < pairs; i++ {
		idx := pqFill + i
		var e pqueue.Entry
		if sampleOne > 0 && i%sampleOne == 0 {
			a := time.Now()
			err = q.Insert(int(w.tags[idx]), idx)
			b := time.Now()
			if err == nil {
				e, err = q.ExtractMin()
			}
			tr.addTree("op", int64(i), []string{"pqueue.insert", "pqueue.extract"}, []time.Time{a, b, time.Now()})
		} else {
			if err = q.Insert(int(w.tags[idx]), idx); err == nil {
				e, err = q.ExtractMin()
			}
		}
		if err != nil {
			return s, fmt.Errorf("pair %d: %w", i, err)
		}
		got = append(got, int32(e.Payload))
		if (i+1)%opChunk == 0 {
			now := time.Now()
			chunkNs = append(chunkNs, now.Sub(chunkStart).Nanoseconds())
			chunkStart = now
		}
	}
	m.stop(&s)
	st := q.Stats()
	sh := q.Sorter().StatsSnapshot()
	for q.Len() > 0 {
		e, err := q.ExtractMin()
		if err != nil {
			return s, fmt.Errorf("drain: %w", err)
		}
		got = append(got, int32(e.Payload))
	}

	if w.want == nil {
		w.want = heapOrder(w.tags, pqFill)
	}
	for i := range w.want {
		if i >= len(got) || got[i] != w.want[i] {
			return s, fmt.Errorf("extract %d disagrees with the (tag, sequence) heap oracle", i)
		}
		if i < pairs {
			s.served++
		}
	}

	s.p50us, s.p90us = chunkLatency(chunkNs)
	s.cycles = sh.MaxLaneCycles
	worst := float64(max(st.WorstInsert, st.WorstExtract))
	if worst > silicon12Limit {
		return s, fmt.Errorf("worst operation made %v sequential accesses, the fixed-time contract allows %d", worst, silicon12Limit)
	}
	s.exact = map[string]float64{
		"modeled_cycles_per_pkt": float64(s.cycles) / float64(pairs),
		"worst_op_accesses":      worst,
		"mean_insert_accesses":   st.MeanInsert(),
		"select_compares":        float64(sh.SelectCompares),
	}
	return s, nil
}

func (w *pqReplay) finish() (int, error) { return 0, nil }

// chunkLatency turns the durations of opChunk-operation chunks into the
// median and 90th-percentile time per operation, in microseconds.
func chunkLatency(chunkNs []int64) (p50us, p90us float64) {
	q := quantilesNs(chunkNs, 0.5, 0.9)
	return q[0] / opChunk, q[1] / opChunk
}

// heapOrder replays the script — fill the first fill tags, then one
// insert and one extract per remaining tag, then drain — on a binary
// heap ordered by (tag, insertion sequence) and returns the payloads in
// extract order: the exact-sort, FCFS-among-equals reference.
func heapOrder(tags []int32, fill int) []int32 {
	h := make(tagSeqHeap, 0, fill+1)
	out := make([]int32, 0, len(tags))
	for i, t := range tags {
		heap.Push(&h, tagSeq{tag: t, seq: int32(i)})
		if i >= fill {
			out = append(out, heap.Pop(&h).(tagSeq).seq)
		}
	}
	for h.Len() > 0 {
		out = append(out, heap.Pop(&h).(tagSeq).seq)
	}
	return out
}

type tagSeq struct{ tag, seq int32 }

type tagSeqHeap []tagSeq

func (h tagSeqHeap) Len() int { return len(h) }
func (h tagSeqHeap) Less(i, j int) bool {
	if h[i].tag != h[j].tag {
		return h[i].tag < h[j].tag
	}
	return h[i].seq < h[j].seq
}
func (h tagSeqHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *tagSeqHeap) Push(x any)   { *h = append(*h, x.(tagSeq)) }
func (h *tagSeqHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
