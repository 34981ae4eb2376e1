package rank

import (
	"math"
	"math/rand"
	"testing"

	"wfqsort/internal/packet"
	"wfqsort/internal/pqueue"
	"wfqsort/internal/wfqhw"
)

func pkt(id, flow, size int, arrival float64) packet.Packet {
	return packet.Packet{ID: id, Flow: flow, Size: size, Arrival: arrival}
}

func TestSoftStoreServesMinRankFCFS(t *testing.T) {
	s := NewSoftStore()
	push := func(seq int, rank float64) {
		if err := s.Push(Item{Packet: pkt(seq, 0, 100, 0), R: Ranked{Rank: rank}, Seq: seq}); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	push(0, 3.0)
	push(1, 1.0)
	push(2, 1.0) // ties with seq 1: FCFS
	push(3, 2.0)
	want := []int{1, 2, 3, 0}
	for i, id := range want {
		it, err := s.Pop(0)
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		if it.Packet.ID != id {
			t.Fatalf("pop %d = packet %d, want %d", i, it.Packet.ID, id)
		}
	}
	if _, err := s.Pop(0); err != ErrEmpty {
		t.Fatalf("empty pop error = %v, want ErrEmpty", err)
	}
}

func TestEligibleStoreGatesOnVirtualTime(t *testing.T) {
	prog, err := NewWF2QPlus([]float64{0.5, 0.5}, 1e6)
	if err != nil {
		t.Fatalf("NewWF2QPlus: %v", err)
	}
	s, err := NewEligibleStore(prog)
	if err != nil {
		t.Fatalf("NewEligibleStore: %v", err)
	}
	// Two packets per flow at t=0: each flow's second packet has start
	// beyond V=0, so the first round must serve the two eligible heads
	// (smallest finish first), never a later packet.
	seq := 0
	for i := 0; i < 2; i++ {
		for f := 0; f < 2; f++ {
			p := pkt(seq, f, 125, 0)
			r, err := prog.Rank(p, 0)
			if err != nil {
				t.Fatalf("rank: %v", err)
			}
			if err := s.Push(Item{Packet: p, R: r, Seq: seq}); err != nil {
				t.Fatalf("push: %v", err)
			}
			seq++
		}
	}
	first, err := s.Pop(0)
	if err != nil {
		t.Fatalf("pop: %v", err)
	}
	if first.R.Start > eligibilityEps {
		t.Fatalf("served start %v before it was eligible at V=0", first.R.Start)
	}
	prog.OnServe(first.Packet, first.R, 0)
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
}

func TestEligibleStoreFallbackEarliestStart(t *testing.T) {
	prog, err := NewWF2QPlus([]float64{1}, 1e6)
	if err != nil {
		t.Fatalf("NewWF2QPlus: %v", err)
	}
	s, err := NewEligibleStore(prog)
	if err != nil {
		t.Fatalf("NewEligibleStore: %v", err)
	}
	// Hand-built items whose starts all exceed any virtual time the
	// idle program can reach at now=0: fallback must pick the earliest
	// start, ties to the lowest flow.
	s.Push(Item{Packet: pkt(0, 3, 100, 0), R: Ranked{Rank: 9, Start: 5}, Seq: 0})
	s.Push(Item{Packet: pkt(1, 1, 100, 0), R: Ranked{Rank: 8, Start: 4}, Seq: 1})
	s.Push(Item{Packet: pkt(2, 2, 100, 0), R: Ranked{Rank: 7, Start: 4}, Seq: 2})
	it, err := s.Pop(0)
	if err != nil {
		t.Fatalf("pop: %v", err)
	}
	if it.Packet.ID != 1 {
		t.Fatalf("fallback served packet %d, want 1 (earliest start, lowest flow)", it.Packet.ID)
	}
}

func TestHWStoreQuantizesAndRebases(t *testing.T) {
	q := pqueue.NewBinaryHeap()
	s, err := NewHWStore(q, 1.0, 16)
	if err != nil {
		t.Fatalf("NewHWStore: %v", err)
	}
	if s.Name() != q.Name() || !s.Exact() {
		t.Fatalf("name/exact = %s/%v, want %s/true", s.Name(), s.Exact(), q.Name())
	}
	mustPush := func(id int, r float64) {
		t.Helper()
		if err := s.Push(Item{Packet: pkt(id, 0, 100, 0), R: Ranked{Rank: r}, Seq: id}); err != nil {
			t.Fatalf("push rank %v: %v", r, err)
		}
	}
	mustPop := func(id int) {
		t.Helper()
		it, err := s.Pop(0)
		if err != nil {
			t.Fatalf("pop: %v", err)
		}
		if it.Packet.ID != id {
			t.Fatalf("pop = packet %d, want %d", it.Packet.ID, id)
		}
	}
	// First busy period rebases the floor to rank 100.
	mustPush(0, 100)
	mustPush(1, 99) // below the floor: clamps to tag 0, FCFS after id 0
	mustPush(2, 114)
	if err := s.Push(Item{Packet: pkt(3, 0, 100, 0), R: Ranked{Rank: 116}, Seq: 3}); err == nil {
		t.Fatalf("rank 116 (window 16) accepted beyond range")
	}
	mustPop(0)
	mustPop(1)
	mustPop(2)
	if _, err := s.Pop(0); err != ErrEmpty {
		t.Fatalf("empty pop error = %v, want ErrEmpty", err)
	}
	// Drained: the window slides to the next busy period's first rank.
	mustPush(4, 200)
	mustPop(4)
}

func TestHWStoreValidation(t *testing.T) {
	if _, err := NewHWStore(nil, 1, 16); err == nil {
		t.Fatal("nil queue accepted")
	}
	if _, err := NewHWStore(pqueue.NewBinaryHeap(), 0, 16); err == nil {
		t.Fatal("zero granularity accepted")
	}
	if _, err := NewHWStore(pqueue.NewBinaryHeap(), 1, 0); err == nil {
		t.Fatal("zero tag range accepted")
	}
}

func TestProgramValidation(t *testing.T) {
	if _, err := NewSCFQ(nil, 1e6); err == nil {
		t.Fatal("SCFQ: no weights accepted")
	}
	if _, err := NewSTFQ([]float64{1}, 0); err == nil {
		t.Fatal("STFQ: zero capacity accepted")
	}
	if _, err := NewWFQ([]float64{0}, 1e6); err == nil {
		t.Fatal("WFQ: zero weight accepted")
	}
	if _, err := NewVirtualClock([]float64{-1}, 1e6); err == nil {
		t.Fatal("VirtualClock: negative weight accepted")
	}
	if _, err := NewWF2QPlus(nil, 1e6); err == nil {
		t.Fatal("WF2QPlus: no weights accepted")
	}
	if _, err := NewEDF(nil); err == nil {
		t.Fatal("EDF: no deadlines accepted")
	}
	if _, err := NewEDF([]float64{0}); err == nil {
		t.Fatal("EDF: zero deadline accepted")
	}
	if _, err := NewSRPT(0); err == nil {
		t.Fatal("SRPT: zero flows accepted")
	}
	if _, err := NewLSTF([]float64{1}, 0); err == nil {
		t.Fatal("LSTF: zero capacity accepted")
	}
	if _, err := NewLSTF([]float64{0}, 1e6); err == nil {
		t.Fatal("LSTF: zero budget accepted")
	}

	vc, _ := NewVirtualClock([]float64{1}, 1e6)
	if _, err := vc.Rank(pkt(0, 5, 100, 0), 0); err == nil {
		t.Fatal("VirtualClock: out-of-range flow ranked")
	}
	edf, _ := NewEDF([]float64{0.01})
	if _, err := edf.Rank(pkt(0, 1, 100, 0), 0); err == nil {
		t.Fatal("EDF: out-of-range flow ranked")
	}
	srpt, _ := NewSRPT(1)
	if _, err := srpt.Rank(pkt(0, 0, 0, 0), 0); err == nil {
		t.Fatal("SRPT: zero-size packet ranked")
	}
	lstf, _ := NewLSTF([]float64{0.01}, 1e6)
	if _, err := lstf.Rank(pkt(0, 2, 100, 0), 0); err == nil {
		t.Fatal("LSTF: out-of-range flow ranked")
	}
}

// TestWFQFixedMatchesTagCircuit: the program is the fixed-point circuit
// scaled by the granularity — nothing more — and a rejected packet
// leaves the circuit's state where it was.
func TestWFQFixedMatchesTagCircuit(t *testing.T) {
	weights := []float64{0.5, 0.3, 0.2}
	const capacity, gran = 1e8, 1e-7
	prog, err := NewWFQFixed(weights, capacity, gran)
	if err != nil {
		t.Fatalf("NewWFQFixed: %v", err)
	}
	hw, err := wfqhw.New(wfqhw.Config{Weights: weights, CapacityBps: capacity, Granularity: gran})
	if err != nil {
		t.Fatalf("wfqhw.New: %v", err)
	}
	if _, err := NewWFQFixed(weights, capacity, 0); err == nil {
		t.Fatal("zero granularity accepted")
	}
	rng := rand.New(rand.NewSource(5))
	now := 0.0
	for i := 0; i < 2000; i++ {
		now += rng.ExpFloat64() * 2e-5
		if i%97 == 0 {
			// An unknown flow is refused before the circuit advances: the
			// next tags still agree with the reference that never saw it.
			if _, err := prog.Rank(pkt(i, len(weights), 100, now+1), now+1); err == nil {
				t.Fatalf("packet %d: unknown flow ranked", i)
			}
		}
		p := pkt(i, rng.Intn(len(weights)), 64+rng.Intn(1400), now)
		r, err := prog.Rank(p, now)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		units, err := hw.Tag(p.Flow, p.Size*8, now)
		if err != nil {
			t.Fatalf("packet %d: reference: %v", i, err)
		}
		if want := float64(units) * gran; r.Rank != want {
			t.Fatalf("packet %d: rank %v, want %d units × %v = %v", i, r.Rank, units, gran, want)
		}
		prog.OnServe(p, r, now)
	}
}

func TestSTFQRanksByStartTag(t *testing.T) {
	s, err := NewSTFQ([]float64{0.5, 0.5}, 1e6)
	if err != nil {
		t.Fatalf("NewSTFQ: %v", err)
	}
	p0 := pkt(0, 0, 125, 0)
	r0, err := s.Rank(p0, 0)
	if err != nil {
		t.Fatalf("rank: %v", err)
	}
	if r0.Rank != 0 || r0.Rank != r0.Start {
		t.Fatalf("first packet rank/start = %v/%v, want 0/0", r0.Rank, r0.Start)
	}
	// Same flow again: start = previous finish = L/(φC) = 1000/5e5 = 2ms.
	r1, err := s.Rank(pkt(1, 0, 125, 0), 0)
	if err != nil {
		t.Fatalf("rank: %v", err)
	}
	if want := 125 * 8 / (0.5 * 1e6); math.Abs(r1.Rank-want) > 1e-12 {
		t.Fatalf("second packet rank = %v, want %v", r1.Rank, want)
	}
	// Serving a packet self-clocks virtual time to its start tag, so a
	// fresh flow's next packet starts there instead of at zero.
	s.OnServe(p0, r1, 0)
	r2, err := s.Rank(pkt(2, 1, 125, 0), 0)
	if err != nil {
		t.Fatalf("rank: %v", err)
	}
	if r2.Rank != r1.Start {
		t.Fatalf("post-serve rank = %v, want virtual time %v", r2.Rank, r1.Start)
	}
}

func TestEDFRanksByAbsoluteDeadline(t *testing.T) {
	e, err := NewEDF([]float64{0.1, 0.01})
	if err != nil {
		t.Fatalf("NewEDF: %v", err)
	}
	lax, _ := e.Rank(pkt(0, 0, 100, 1.0), 1.0)
	tight, _ := e.Rank(pkt(1, 1, 100, 1.05), 1.05)
	if !(tight.Rank < lax.Rank) {
		t.Fatalf("later tight-deadline packet rank %v not ahead of %v", tight.Rank, lax.Rank)
	}
	if lax.Rank != 1.1 || tight.Rank != 1.06 {
		t.Fatalf("ranks = %v, %v; want 1.1, 1.06", lax.Rank, tight.Rank)
	}
}

func TestSRPTTracksFlowBacklog(t *testing.T) {
	s, err := NewSRPT(2)
	if err != nil {
		t.Fatalf("NewSRPT: %v", err)
	}
	p0 := pkt(0, 0, 1500, 0)
	r0, _ := s.Rank(p0, 0)
	r1, _ := s.Rank(pkt(1, 0, 1500, 0), 0)
	if r0.Rank != 1500*8 || r1.Rank != 2*1500*8 {
		t.Fatalf("flow-0 ranks = %v, %v; want %v, %v", r0.Rank, r1.Rank, 1500.0*8, 2*1500.0*8)
	}
	// A short packet on the idle flow outranks the heavy backlog.
	rShort, _ := s.Rank(pkt(2, 1, 64, 0), 0)
	if !(rShort.Rank < r0.Rank) {
		t.Fatalf("short flow rank %v not ahead of backlogged %v", rShort.Rank, r0.Rank)
	}
	s.OnServe(p0, r0, 0)
	r2, _ := s.Rank(pkt(3, 0, 1500, 0), 0)
	if r2.Rank != 2*1500*8 {
		t.Fatalf("post-serve flow-0 rank = %v, want %v", r2.Rank, 2*1500.0*8)
	}
}

func TestLSTFSlackShrinksWithWaiting(t *testing.T) {
	l, err := NewLSTF([]float64{0.01}, 1e6)
	if err != nil {
		t.Fatalf("NewLSTF: %v", err)
	}
	p := pkt(0, 0, 125, 0)
	early, _ := l.Rank(p, 0)
	late, _ := l.Rank(pkt(1, 0, 125, 0.005), 0.009) // waited 4ms in an upstream queue
	if !(late.Rank < early.Rank) {
		t.Fatalf("delayed packet slack %v not below fresh slack %v", late.Rank, early.Rank)
	}
	if want := 0.01 - 125*8/1e6; math.Abs(early.Rank-want) > 1e-12 {
		t.Fatalf("fresh slack = %v, want %v", early.Rank, want)
	}
}
