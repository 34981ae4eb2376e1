package engine

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"wfqsort/internal/aqm"
)

// batchPayload names a submission so the consumer side can tell which
// producer, which call and which position in the call it came from.
func batchPayload(producer, call, index int) int { return producer<<40 | call<<16 | index }

// batchProducer offers a mix of Submit and SubmitBatch calls until its
// budget is spent or the engine stops, recording the verdict on every
// item it offered.
type batchProducer struct {
	id       int
	admitted map[int]bool // payload → the engine's verdict
	err      error        // what ended the loop early, if anything
}

func (p *batchProducer) run(e *Engine, calls int) {
	rng := rand.New(rand.NewSource(int64(p.id) + 3))
	p.admitted = make(map[int]bool)
	tags, payloads, verdicts := make([]int, 64), make([]int, 64), make([]bool, 64)
	for call := 0; call < calls; call++ {
		if call%3 == 2 {
			payload := batchPayload(p.id, call, 0)
			ok, err := e.Submit(rng.Intn(16), payload)
			if err != nil {
				p.err = err
				return
			}
			p.admitted[payload] = ok
			continue
		}
		// Few distinct tags, so a batch carries long runs of equal ones.
		n := 1 + rng.Intn(len(tags))
		for i := 0; i < n; i++ {
			tags[i], payloads[i] = rng.Intn(16), batchPayload(p.id, call, i)
		}
		done, err := e.SubmitBatch(tags[:n], payloads[:n], verdicts[:n])
		for i := 0; i < done; i++ {
			p.admitted[payloads[i]] = verdicts[i]
		}
		if err != nil {
			p.err = err
			return
		}
	}
}

// checkBatchOutcome closes the books after Stop: what the producers were
// told is what the counters say and what the consumer got, and equal
// tags out of one call left in the order they went in.
func checkBatchOutcome(t *testing.T, e *Engine, producers []*batchProducer, served []Served) {
	t.Helper()
	st := e.StatsSnapshot()
	checkConservation(t, st)
	admitted, dropped := 0, 0
	for _, p := range producers {
		for _, ok := range p.admitted {
			if ok {
				admitted++
			} else {
				dropped++
			}
		}
	}
	if st.Submitted != uint64(admitted) || st.DropsRing+st.DropsRED != uint64(dropped) {
		t.Fatalf("producers were told %d admitted, %d dropped; counters say submitted %d, drops %d+%d",
			admitted, dropped, st.Submitted, st.DropsRing, st.DropsRED)
	}
	if len(served) != admitted {
		t.Fatalf("served %d of %d admitted", len(served), admitted)
	}
	type callTag struct{ call, tag int }
	last := make(map[callTag]int)
	seen := make(map[int]bool, len(served))
	for _, s := range served {
		if seen[s.Payload] {
			t.Fatalf("payload %#x served twice", s.Payload)
		}
		seen[s.Payload] = true
		if ok := producers[s.Payload>>40].admitted[s.Payload]; !ok {
			t.Fatalf("payload %#x served but not admitted", s.Payload)
		}
		k := callTag{s.Payload >> 16, s.Tag}
		if prev, ok := last[k]; ok && prev > s.Payload {
			t.Fatalf("tag %d: item %d of call %#x served after item %d", s.Tag, s.Payload&0xffff, k.call, prev&0xffff)
		}
		last[k] = s.Payload
	}
}

// TestSubmitBatchConcurrent: two producers mixing Submit and SubmitBatch
// against rings far smaller than a batch, under each policy.
func TestSubmitBatchConcurrent(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		drops  func(Stats) uint64 // the drop counter the policy must move; nil: none may
	}{
		{PolicyBlock, nil},
		{PolicyDropTail, func(st Stats) uint64 { return st.DropsRing }},
		{PolicyRED, func(st Stats) uint64 { return st.DropsRED }},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			e, err := New(Config{
				Lanes: 4, LaneCapacity: 512, RingSize: 16, BatchSize: 8, OutBuffer: 4,
				Policy: tc.policy,
				RED:    aqm.REDConfig{MinThreshold: 4, MaxThreshold: 16, MaxP: 0.9, Seed: 11},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			var served []Served
			var cwg sync.WaitGroup
			drainAll(t, e, &served, &cwg)

			producers := []*batchProducer{{id: 0}, {id: 1}}
			var pwg sync.WaitGroup
			for _, p := range producers {
				pwg.Add(1)
				go func(p *batchProducer) {
					defer pwg.Done()
					p.run(e, 150)
				}(p)
			}
			pwg.Wait()
			if err := e.Stop(); err != nil {
				t.Fatal(err)
			}
			cwg.Wait()
			for _, p := range producers {
				if p.err != nil {
					t.Fatalf("producer %d: %v", p.id, p.err)
				}
			}
			checkBatchOutcome(t, e, producers, served)
			st := e.StatsSnapshot()
			switch {
			case tc.drops == nil && st.DropsRing+st.DropsRED != 0:
				t.Fatalf("dropped %d+%d under %v", st.DropsRing, st.DropsRED, tc.policy)
			case tc.drops != nil && tc.drops(st) == 0:
				t.Fatalf("no drops under %v: the policy's shed path was not exercised", tc.policy)
			}
		})
	}
}

// TestSubmitBatchStopRace: Stop lands while batches are in flight. Each
// producer ends on ErrStopped with an exact count of what went in before
// it, and everything that went in is served.
func TestSubmitBatchStopRace(t *testing.T) {
	e, err := New(Config{Lanes: 4, LaneCapacity: 512, RingSize: 16, BatchSize: 8, OutBuffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var served []Served
	var n atomic.Int64
	busy := make(chan struct{})
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for s := range e.Served() {
			served = append(served, s)
			if n.Add(1) == 2000 {
				close(busy)
			}
		}
	}()
	producers := []*batchProducer{{id: 0}, {id: 1}}
	var pwg sync.WaitGroup
	for _, p := range producers {
		pwg.Add(1)
		go func(p *batchProducer) {
			defer pwg.Done()
			p.run(e, 1<<20) // more than Stop will allow
		}(p)
	}
	<-busy
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	pwg.Wait()
	cwg.Wait()
	for _, p := range producers {
		if !errors.Is(p.err, ErrStopped) {
			t.Fatalf("producer %d ended with %v, want ErrStopped", p.id, p.err)
		}
	}
	checkBatchOutcome(t, e, producers, served)
}

// TestSubmitBatchErrors: the errors stop a batch where they occur and
// say how far it got.
func TestSubmitBatchErrors(t *testing.T) {
	e, err := New(Config{Lanes: 2, LaneCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make([]bool, 3)
	if _, err := e.SubmitBatch([]int{1, 2, 3}, []int{1, 2, 3}, verdicts); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("before Start: %v", err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var served []Served
	var cwg sync.WaitGroup
	drainAll(t, e, &served, &cwg)
	if _, err := e.SubmitBatch([]int{1, 2}, []int{1}, verdicts[:2]); err == nil {
		t.Fatal("mismatched slice lengths accepted")
	}
	if done, err := e.SubmitBatch(nil, nil, nil); done != 0 || err != nil {
		t.Fatalf("empty batch: done %d, %v", done, err)
	}
	done, err := e.SubmitBatch([]int{5, e.TagRange(), 6}, []int{10, 11, 12}, verdicts)
	if done != 1 || err == nil || !verdicts[0] {
		t.Fatalf("bad tag at index 1: done %d, verdicts %v, err %v", done, verdicts, err)
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	cwg.Wait()
	if len(served) != 1 || served[0].Payload != 10 {
		t.Fatalf("served %+v, want the one item before the bad tag", served)
	}
	checkConservation(t, e.StatsSnapshot())
	if _, err := e.SubmitBatch([]int{1}, []int{1}, verdicts[:1]); !errors.Is(err, ErrStopped) {
		t.Fatalf("after Stop: %v", err)
	}
}
