// timers-churn: the sorter as a deadline queue holding a million live
// timers — cancellation (Remove) beside arm (Insert) and fire
// (ExtractMin) on the 20-bit geometry, the shape of sortbench -timers.
//
//wfqlint:ignore-file determinism the benchmark harness measures host wall-clock time by design; seeded inputs and modelled counts stay deterministic and are checked for it
package main

import (
	"fmt"
	"math/rand"
	"time"

	"wfqsort/internal/pqueue"
)

const (
	timersLevels      = 5
	timersLiteralBits = 4
	timersCapacity    = 1 << 20
	timersLive        = 31_250
	timersOps         = 400_000 // steady operations per repetition
	timersMaxDelay    = 1 << 9  // arm horizon above the service floor
	timersZipfS       = 1.2     // cancellation skew toward the newest
	timersCancelFrac  = 0.6
	// geometry20Limit is the fixed-time contract at this geometry: five
	// tree levels, one translation read and the unlink's list window
	// counted as one (pqueue's convention for Remove).
	geometry20Limit = timersLevels + 2
)

// timerArena is the benchmark's ledger of live timers: ids double as
// sorter payloads, live is a newest-last stack for victim selection and
// pos maps an id to its place in it.
type timerArena struct {
	tag   []int32
	armed []bool
	free  []int32
	live  []int32
	pos   []int32
}

func newTimerArena(capacity int) *timerArena {
	a := &timerArena{
		tag:   make([]int32, capacity),
		armed: make([]bool, capacity),
		free:  make([]int32, capacity),
		live:  make([]int32, 0, capacity),
		pos:   make([]int32, capacity),
	}
	for i := range a.free {
		a.free[i] = int32(capacity - 1 - i)
	}
	return a
}

func (a *timerArena) arm(tag int) (id int, ok bool) {
	if len(a.free) == 0 {
		return 0, false
	}
	id32 := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.tag[id32] = int32(tag)
	a.armed[id32] = true
	a.pos[id32] = int32(len(a.live))
	a.live = append(a.live, id32)
	return int(id32), true
}

// release frees id; false means the sorter produced an id the ledger
// does not hold armed — a ghost.
func (a *timerArena) release(id int) bool {
	if id < 0 || id >= len(a.armed) || !a.armed[id] {
		return false
	}
	p := a.pos[id]
	last := a.live[len(a.live)-1]
	a.live[p] = last
	a.pos[last] = p
	a.live = a.live[:len(a.live)-1]
	a.armed[id] = false
	a.free = append(a.free, int32(id))
	return true
}

// victim picks a cancellation target, rank 0 being the newest timer.
func (a *timerArena) victim(z *rand.Zipf) (id, tag int) {
	rank := int(z.Uint64())
	if rank >= len(a.live) {
		rank = len(a.live) - 1
	}
	id32 := a.live[len(a.live)-1-rank]
	return int(id32), int(a.tag[id32])
}

type timers struct {
	o     options
	q     pqueue.DynamicQueue
	rng   *rand.Rand
	zipf  *rand.Zipf
	arena *timerArena
	floor int

	armed, fired, cancelled uint64
}

func newTimers(o options) workload { return &timers{o: o} }

func (w *timers) arm() error {
	deadline := w.floor + 1 + w.rng.Intn(timersMaxDelay)
	if deadline >= 1<<(timersLevels*timersLiteralBits) {
		return fmt.Errorf("deadline %d exhausted the tag space", deadline)
	}
	id, ok := w.arena.arm(deadline)
	if !ok {
		return fmt.Errorf("arena full at %d live timers", len(w.arena.live))
	}
	if err := w.q.Insert(deadline, id); err != nil {
		return fmt.Errorf("arm: %w", err)
	}
	w.armed++
	return nil
}

// setup builds the queue and arms the live population; repetitions
// then churn that one queue, which is the steady state the workload is
// about.
func (w *timers) setup() error {
	q, err := pqueue.NewMultiBitTreeGeometry(timersCapacity, timersLevels, timersLiteralBits)
	if err != nil {
		return err
	}
	w.q = q
	live := w.o.n(timersLive, 1000)
	w.rng = rand.New(rand.NewSource(w.o.seed))
	w.zipf = rand.NewZipf(w.rng, timersZipfS, 1, uint64(live-1))
	w.arena = newTimerArena(timersCapacity)
	for len(w.arena.live) < live {
		if err := w.arm(); err != nil {
			return err
		}
	}
	return nil
}

func (w *timers) rep(tr *tracer) (sample, error) {
	ops := w.o.n(timersOps, 4*opChunk)
	s := sample{offered: ops}
	w.q.ResetStats()
	chunkNs := make([]int64, 0, ops/opChunk+1)
	sampleOne := 0
	if tr != nil {
		sampleOne = seqSampleOne
	}
	m := startMeter()
	chunkStart := m.t0
	for op := 0; op < ops; op++ {
		traced := sampleOne > 0 && op%sampleOne == 0
		var a, b time.Time
		if traced {
			a = time.Now()
		}
		name := "pqueue.extract"
		if w.rng.Float64() < timersCancelFrac {
			name = "pqueue.remove"
			id, tag := w.arena.victim(w.zipf)
			found, err := w.q.Remove(tag, id)
			if err != nil {
				return s, fmt.Errorf("cancel: %w", err)
			}
			if !found {
				return s, fmt.Errorf("timer %d armed at %d is gone from the sorter", id, tag)
			}
			if !w.arena.release(id) {
				return s, fmt.Errorf("cancelled timer %d was not armed", id)
			}
			w.cancelled++
		} else {
			e, err := w.q.ExtractMin()
			if err != nil {
				return s, fmt.Errorf("fire: %w", err)
			}
			if e.Tag < w.floor {
				return s, fmt.Errorf("fired deadline %d below the floor %d", e.Tag, w.floor)
			}
			w.floor = e.Tag
			if !w.arena.release(e.Payload) {
				return s, fmt.Errorf("fired timer %d was not armed (ghost)", e.Payload)
			}
			w.fired++
		}
		if traced {
			b = time.Now()
		}
		if err := w.arm(); err != nil {
			return s, err
		}
		if traced {
			tr.addTree("op", int64(op), []string{name, "pqueue.insert"}, []time.Time{a, b, time.Now()})
		}
		s.served++
		if (op+1)%opChunk == 0 {
			now := time.Now()
			chunkNs = append(chunkNs, now.Sub(chunkStart).Nanoseconds())
			chunkStart = now
		}
	}
	m.stop(&s)

	s.p50us, s.p90us = chunkLatency(chunkNs)
	st := w.q.Stats()
	// The adapter exposes no clock, so modelled time is derived: every
	// arm, fire and cancel is one four-cycle operation window.
	s.cycles = 4 * (st.Inserts + st.Extracts + st.Removes)
	worst := float64(max(st.WorstInsert, st.WorstExtract, st.WorstRemove))
	if worst > geometry20Limit {
		return s, fmt.Errorf("worst operation made %v sequential accesses, the fixed-time contract allows %d", worst, geometry20Limit)
	}
	s.exact = map[string]float64{
		"modeled_cycles_per_pkt": float64(s.cycles) / float64(ops),
		"worst_op_accesses":      worst,
		"mean_insert_accesses":   st.MeanInsert(),
		"mean_remove_accesses":   st.MeanRemove(),
		"floor":                  float64(w.floor),
	}
	return s, nil
}

// finish drains the live population in sorted order and closes the
// ledger: every armed timer fired, was cancelled or drained.
func (w *timers) finish() (int, error) {
	prev := -1
	var drained uint64
	for w.q.Len() > 0 {
		e, err := w.q.ExtractMin()
		if err != nil {
			return 0, fmt.Errorf("drain: %w", err)
		}
		if e.Tag < prev {
			return 0, fmt.Errorf("drain out of order: %d after %d", e.Tag, prev)
		}
		prev = e.Tag
		if !w.arena.release(e.Payload) {
			return 0, fmt.Errorf("drained timer %d was not armed (ghost)", e.Payload)
		}
		drained++
	}
	lost := len(w.arena.live)
	if total := w.fired + w.cancelled + drained; total+uint64(lost) != w.armed {
		return lost, fmt.Errorf("ledger: armed %d != fired %d + cancelled %d + drained %d + lost %d",
			w.armed, w.fired, w.cancelled, drained, lost)
	}
	if lost != 0 {
		return lost, fmt.Errorf("%d armed timers never came out of the sorter", lost)
	}
	return 0, nil
}
