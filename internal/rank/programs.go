package rank

import (
	"fmt"

	"wfqsort/internal/packet"
	"wfqsort/internal/wfq"
	"wfqsort/internal/wfqhw"
)

// SCFQ is self-clocked fair queueing as a rank program: rank is the
// SCFQ finishing tag F = max(F_prev, v) + L/(φ·C), and OnServe bumps
// the self-clocked virtual time to the served tag. Over a SoftStore it
// reproduces the pre-seam SCFQ discipline byte for byte.
type SCFQ struct {
	tagger *wfq.SCFQ
}

// NewSCFQ builds the program for the given flow weights and link
// capacity in bits/s.
func NewSCFQ(weights []float64, capacityBps float64) (*SCFQ, error) {
	t, err := wfq.NewSCFQ(weights, capacityBps)
	if err != nil {
		return nil, err
	}
	return &SCFQ{tagger: t}, nil
}

func (s *SCFQ) Name() string { return "SCFQ" }

func (s *SCFQ) Rank(p packet.Packet, now float64) (Ranked, error) {
	start, finish, err := s.tagger.TagPair(p.Flow, p.Bits())
	if err != nil {
		return Ranked{}, err
	}
	return Ranked{Rank: finish, Start: start}, nil
}

func (s *SCFQ) OnServe(p packet.Packet, r Ranked, now float64) { s.tagger.Serve(r.Rank) }

// STFQ is start-time fair queueing (Goyal et al., the rank program the
// PIFO paper builds its hierarchy example on): tags are computed like
// SCFQ's but the packet is ranked by its *start* tag, and the virtual
// time self-clocks to the start tag of the packet in service.
type STFQ struct {
	tagger *wfq.SCFQ
}

// NewSTFQ builds the program for the given flow weights and link
// capacity in bits/s.
func NewSTFQ(weights []float64, capacityBps float64) (*STFQ, error) {
	t, err := wfq.NewSCFQ(weights, capacityBps)
	if err != nil {
		return nil, err
	}
	return &STFQ{tagger: t}, nil
}

func (s *STFQ) Name() string { return "STFQ" }

func (s *STFQ) Rank(p packet.Packet, now float64) (Ranked, error) {
	start, _, err := s.tagger.TagPair(p.Flow, p.Bits())
	if err != nil {
		return Ranked{}, err
	}
	return Ranked{Rank: start, Start: start}, nil
}

func (s *STFQ) OnServe(p packet.Packet, r Ranked, now float64) { s.tagger.Serve(r.Start) }

// WFQ is weighted fair queueing over the exact GPS busy-set simulation
// (wfq.Clock): rank is the GPS finishing tag. It is the rank program
// behind the hardware WFQ discipline — compose it with an HWStore to
// get the paper's quantized sorter datapath.
type WFQ struct {
	clock *wfq.Clock
}

// NewWFQ builds the program for the given flow weights and link
// capacity in bits/s.
func NewWFQ(weights []float64, capacityBps float64) (*WFQ, error) {
	c, err := wfq.NewClock(weights, capacityBps)
	if err != nil {
		return nil, err
	}
	return &WFQ{clock: c}, nil
}

func (w *WFQ) Name() string { return "WFQ" }

func (w *WFQ) Rank(p packet.Packet, now float64) (Ranked, error) {
	start, finish, err := w.clock.Tag(p.Flow, p.Bits(), now)
	if err != nil {
		return Ranked{}, err
	}
	return Ranked{Rank: finish, Start: start}, nil
}

func (w *WFQ) OnServe(p packet.Packet, r Ranked, now float64) {}

// WFQFixed is WFQ computed by the fixed-point tag circuit of paper
// reference [8] (wfqhw.Tagger): integer arithmetic end to end, exactly
// as the silicon computes tags. The circuit's output is already in
// sorter units; Rank scales it back by the granularity, so a quantizer
// with the same granularity re-derives the same integer.
type WFQFixed struct {
	hw          *wfqhw.Tagger
	granularity float64
}

// NewWFQFixed builds the program for the given flow weights, link
// capacity in bits/s and granularity in virtual-time seconds per tag
// unit.
func NewWFQFixed(weights []float64, capacityBps, granularity float64) (*WFQFixed, error) {
	hw, err := wfqhw.New(wfqhw.Config{Weights: weights, CapacityBps: capacityBps, Granularity: granularity})
	if err != nil {
		return nil, err
	}
	return &WFQFixed{hw: hw, granularity: granularity}, nil
}

func (w *WFQFixed) Name() string { return "WFQ-fixed-point" }

func (w *WFQFixed) Rank(p packet.Packet, now float64) (Ranked, error) {
	units, err := w.hw.Tag(p.Flow, int(p.Bits()), now)
	if err != nil {
		return Ranked{}, err
	}
	return Ranked{Rank: float64(units) * w.granularity}, nil
}

func (w *WFQFixed) OnServe(p packet.Packet, r Ranked, now float64) {}

// VirtualClock is Zhang's Virtual Clock as a rank program: packets are
// stamped F = max(F_prev, now) + L/(φ·C) against real time — no
// virtual-time simulation at all, with the well-known punishment of
// flows that over-used an idle link.
type VirtualClock struct {
	capacity float64
	weights  []float64
	lastF    []float64
}

// NewVirtualClock builds the program for the given flow weights and
// link capacity in bits/s.
func NewVirtualClock(weights []float64, capacityBps float64) (*VirtualClock, error) {
	ws, err := validateWeights("vc", weights, capacityBps)
	if err != nil {
		return nil, err
	}
	return &VirtualClock{capacity: capacityBps, weights: ws, lastF: make([]float64, len(ws))}, nil
}

func (v *VirtualClock) Name() string { return "VirtualClock" }

func (v *VirtualClock) Rank(p packet.Packet, now float64) (Ranked, error) {
	if p.Flow < 0 || p.Flow >= len(v.weights) {
		return Ranked{}, fmt.Errorf("vc: flow %d out of range", p.Flow)
	}
	start := now
	if v.lastF[p.Flow] > start {
		start = v.lastF[p.Flow]
	}
	finish := start + p.Bits()/(v.weights[p.Flow]*v.capacity)
	v.lastF[p.Flow] = finish
	return Ranked{Rank: finish, Start: start}, nil
}

func (v *VirtualClock) OnServe(p packet.Packet, r Ranked, now float64) {}

// WF2QPlus is WF²Q+ (paper reference [6]) as an eligibility-gated rank
// program: tags S = max(F_prev, V), F = S + L/(φ·C) with the cheap
// virtual-time update V(t+τ) = max(V(t) + τ/ΣΦ, min backlogged S_head).
// The program tracks its outstanding start tags per flow (a mirror of
// the store's per-flow heads, valid because per-flow tags are
// monotone), so VirtualTime needs no store cooperation. Compose it with
// an EligibleStore.
type WF2QPlus struct {
	capacity float64
	weights  []float64
	sumW     float64
	v        float64
	lastT    float64
	lastF    []float64
	starts   [][]float64 // per-flow FIFO of outstanding start tags
}

// NewWF2QPlus builds the program for the given flow weights and link
// capacity in bits/s.
func NewWF2QPlus(weights []float64, capacityBps float64) (*WF2QPlus, error) {
	ws, err := validateWeights("wf2q+", weights, capacityBps)
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	return &WF2QPlus{
		capacity: capacityBps,
		weights:  ws,
		sumW:     sum,
		lastF:    make([]float64, len(ws)),
		starts:   make([][]float64, len(ws)),
	}, nil
}

func (w *WF2QPlus) Name() string { return "WF2Q+" }

// advance applies the WF²Q+ virtual-time update at real time now.
func (w *WF2QPlus) advance(now float64) {
	if now > w.lastT {
		w.v += (now - w.lastT) / w.sumW
		w.lastT = now
	}
	// Jump V up to the smallest outstanding head start tag so a freshly
	// busy system doesn't stall behind an old V.
	minS, any := 0.0, false
	for f := range w.starts {
		if len(w.starts[f]) == 0 {
			continue
		}
		if s := w.starts[f][0]; !any || s < minS {
			minS, any = s, true
		}
	}
	if any && minS > w.v {
		w.v = minS
	}
}

func (w *WF2QPlus) Rank(p packet.Packet, now float64) (Ranked, error) {
	if p.Flow < 0 || p.Flow >= len(w.weights) {
		return Ranked{}, fmt.Errorf("wf2q+: flow %d out of range", p.Flow)
	}
	w.advance(now)
	s := w.v
	if w.lastF[p.Flow] > s {
		s = w.lastF[p.Flow]
	}
	f := s + p.Bits()/(w.weights[p.Flow]*w.capacity)
	w.lastF[p.Flow] = f
	w.starts[p.Flow] = append(w.starts[p.Flow], s)
	return Ranked{Rank: f, Start: s}, nil
}

// OnServe retires the served packet's start tag. Eligible service
// always lands on a per-flow head (per-flow tags are monotone), so the
// FIFO pop removes exactly the served packet's entry.
func (w *WF2QPlus) OnServe(p packet.Packet, r Ranked, now float64) {
	if p.Flow < 0 || p.Flow >= len(w.starts) || len(w.starts[p.Flow]) == 0 {
		return
	}
	w.starts[p.Flow] = w.starts[p.Flow][1:]
}

// VirtualTime implements EligibilityProgram.
func (w *WF2QPlus) VirtualTime(now float64) float64 {
	w.advance(now)
	return w.v
}

// EDF is earliest-deadline-first as a rank program: flow f's packets
// must depart within deadlines[f] seconds of arrival, and the rank is
// that absolute deadline.
type EDF struct {
	deadlines []float64
}

// NewEDF builds the program; deadlines[f] is flow f's relative deadline
// in seconds.
func NewEDF(deadlines []float64) (*EDF, error) {
	if len(deadlines) == 0 {
		return nil, fmt.Errorf("edf: no flows")
	}
	for f, d := range deadlines {
		if d <= 0 {
			return nil, fmt.Errorf("edf: flow %d deadline %v must be positive", f, d)
		}
	}
	ds := make([]float64, len(deadlines))
	copy(ds, deadlines)
	return &EDF{deadlines: ds}, nil
}

func (e *EDF) Name() string { return "EDF" }

func (e *EDF) Rank(p packet.Packet, now float64) (Ranked, error) {
	if p.Flow < 0 || p.Flow >= len(e.deadlines) {
		return Ranked{}, fmt.Errorf("edf: flow %d out of range", p.Flow)
	}
	d := p.Arrival + e.deadlines[p.Flow]
	return Ranked{Rank: d, Start: p.Arrival}, nil
}

func (e *EDF) OnServe(p packet.Packet, r Ranked, now float64) {}

// SRPT is shortest-remaining-processing-time at flow granularity: a
// packet's rank is its flow's outstanding backlog in bits (including
// itself) at enqueue time, so lightly backlogged flows overtake heavy
// ones. OnServe returns the served bits to the flow's budget.
type SRPT struct {
	remaining []float64
}

// NewSRPT builds the program for the given flow count.
func NewSRPT(flows int) (*SRPT, error) {
	if flows <= 0 {
		return nil, fmt.Errorf("srpt: flow count %d must be positive", flows)
	}
	return &SRPT{remaining: make([]float64, flows)}, nil
}

func (s *SRPT) Name() string { return "SRPT" }

func (s *SRPT) Rank(p packet.Packet, now float64) (Ranked, error) {
	if p.Flow < 0 || p.Flow >= len(s.remaining) {
		return Ranked{}, fmt.Errorf("srpt: flow %d out of range", p.Flow)
	}
	if p.Bits() <= 0 {
		return Ranked{}, fmt.Errorf("srpt: packet size %v bits must be positive", p.Bits())
	}
	s.remaining[p.Flow] += p.Bits()
	return Ranked{Rank: s.remaining[p.Flow]}, nil
}

func (s *SRPT) OnServe(p packet.Packet, r Ranked, now float64) {
	if p.Flow < 0 || p.Flow >= len(s.remaining) {
		return
	}
	s.remaining[p.Flow] -= p.Bits()
	if s.remaining[p.Flow] < 0 {
		s.remaining[p.Flow] = 0
	}
}

// LSTF is least-slack-time-first (the universal program of Mittal et
// al., PAPERS.md): rank is the packet's slack — time to spare before
// its per-flow latency budget expires, net of its own transmission
// time — measured at enqueue. Slack may go negative for late packets;
// the rank stays totally ordered either way.
type LSTF struct {
	capacity float64
	budgets  []float64
}

// NewLSTF builds the program; budgets[f] is flow f's end-to-end latency
// budget in seconds, capacityBps the link rate used to charge each
// packet its own transmission time.
func NewLSTF(budgets []float64, capacityBps float64) (*LSTF, error) {
	if capacityBps <= 0 {
		return nil, fmt.Errorf("lstf: capacity %v must be positive", capacityBps)
	}
	if len(budgets) == 0 {
		return nil, fmt.Errorf("lstf: no flows")
	}
	for f, b := range budgets {
		if b <= 0 {
			return nil, fmt.Errorf("lstf: flow %d budget %v must be positive", f, b)
		}
	}
	bs := make([]float64, len(budgets))
	copy(bs, budgets)
	return &LSTF{capacity: capacityBps, budgets: bs}, nil
}

func (l *LSTF) Name() string { return "LSTF" }

func (l *LSTF) Rank(p packet.Packet, now float64) (Ranked, error) {
	if p.Flow < 0 || p.Flow >= len(l.budgets) {
		return Ranked{}, fmt.Errorf("lstf: flow %d out of range", p.Flow)
	}
	slack := p.Arrival + l.budgets[p.Flow] - now - p.Bits()/l.capacity
	return Ranked{Rank: slack, Start: p.Arrival}, nil
}

func (l *LSTF) OnServe(p packet.Packet, r Ranked, now float64) {}
