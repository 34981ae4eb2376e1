// Package scheduler assembles the complete WFQ scheduler of paper
// Fig. 1: the WFQ tag computation circuit (wfq), the shared packet
// buffer (packet), and the tag sort/retrieve circuit (core) — the full
// hardware datapath from packet arrival to scheduled departure, with
// cycle accounting that reproduces the paper's §IV throughput analysis
// (one tag per four-cycle window ⇒ 35.8 Mpps at 143 MHz ⇒ 40 Gb/s at
// 140-byte average packets).
package scheduler

import (
	"errors"
	"fmt"
	"sort"

	"wfqsort/internal/aqm"
	"wfqsort/internal/core"
	"wfqsort/internal/hwsim"
	"wfqsort/internal/membus"
	"wfqsort/internal/metrics"
	"wfqsort/internal/packet"
	"wfqsort/internal/rank"
	"wfqsort/internal/schedulers"
	"wfqsort/internal/taglist"
	"wfqsort/internal/wfq"
)

// Config describes a scheduler instance.
type Config struct {
	// Weights are the per-session WFQ weights φ.
	Weights []float64
	// Program is the tag computation circuit plugged into the Fig. 1
	// architecture — the paper stresses that "any fair queueing based
	// algorithm can be inserted into the architecture in place of the
	// WFQ calculation circuit". Its ranks are finishing tags in
	// virtual-time seconds, quantized onto the sorter by Granularity.
	// Nil selects rank.NewWFQ(Weights, CapacityBps), weighted fair
	// queueing with an exact GPS virtual clock.
	Program rank.Program
	// MemTech selects the tag-store memory technology (default SDR
	// SRAM; QDRII halves the operation window, paper §III-C).
	MemTech taglist.MemTech
	// CapacityBps is the output line rate in bits/s.
	CapacityBps float64
	// ClockHz is the circuit clock for throughput accounting. Defaults
	// to the paper's 143.2 MHz (4 cycles/op ⇒ 35.8 Mops/s).
	ClockHz float64
	// BufferSlots sizes the shared packet buffer. Defaults to
	// SorterCapacity.
	BufferSlots int
	// SorterCapacity is the number of tag-store links. Default 4096.
	SorterCapacity int
	// Granularity is the finishing-tag quantization step in virtual-time
	// seconds per tag unit. When zero a safe default is derived from the
	// buffer size, the maximum packet, the minimum weight, and the tag
	// window (guaranteeing no window overflow while the buffer bounds
	// the backlog).
	Granularity float64
	// MaxPacketBytes bounds packet sizes for the granularity derivation
	// (default 1500).
	MaxPacketBytes int
	// OnFull selects the overload policy (default FullError).
	OnFull FullPolicy
	// OnCorrupt selects the recovery policy when the sort/retrieve
	// circuit reports corrupt state (default CorruptAbort).
	OnCorrupt CorruptPolicy
	// AuditEvery, when positive, runs a full integrity audit of the
	// sorter memories every AuditEvery departures (a background scrub
	// engine); violations are handled per OnCorrupt. Zero disables the
	// scrub, leaving detection to the operations themselves.
	AuditEvery int
	// Fabric, when non-nil, is the memory fabric the sorter's
	// component memories are provisioned from. Pass one to attach a
	// fault injector (internal/fault) or read per-bank port
	// statistics; when nil a private fabric is built on Clock.
	Fabric *membus.Fabric
	// Clock, when non-nil and Fabric is nil, is the clock domain of
	// the sorter's private fabric; it is advanced by every sorter
	// memory access and stamps recovery events with cycle numbers.
	Clock *hwsim.Clock
	// RED configures early detection when OnFull is FullRED; the zero
	// value selects thresholds at 1/4 and 3/4 of the buffer with
	// maxP 0.05.
	RED aqm.REDConfig
}

// FullPolicy selects what happens when the packet buffer cannot admit an
// arrival.
type FullPolicy int

// Overload policies.
const (
	// FullError aborts the run on the first un-admittable packet (the
	// strict default: overload is treated as a configuration error).
	FullError FullPolicy = iota
	// FullTailDrop silently drops arrivals that find the buffer full,
	// counting them in Result.Dropped.
	FullTailDrop
	// FullRED applies random early detection on the buffer occupancy,
	// dropping probabilistically before the buffer fills (internal/aqm).
	FullRED
)

// CorruptPolicy selects what happens when the sort/retrieve circuit
// reports corrupt state — an error wrapping core.ErrCorrupt from an
// operation, or a periodic audit finding violations.
type CorruptPolicy int

// Corruption recovery policies.
const (
	// CorruptAbort fails the run with the corruption error (the strict
	// default: a fault is treated as fatal, errors.Is(err,
	// core.ErrCorrupt) reports true on the returned error).
	CorruptAbort CorruptPolicy = iota
	// CorruptRebuild pauses service and reconstructs the search tree,
	// translation table, and free list from the tag store — the
	// authoritative copy — then retries the failed operation and
	// resumes. When the tag store itself is damaged (rebuild
	// impossible) it escalates to a flush.
	CorruptRebuild
	// CorruptFlush discards every queued packet (counted in
	// Result.Lost) and reinitializes the datapath — the last-resort
	// policy that trades queued traffic for forward progress.
	CorruptFlush
)

func (p CorruptPolicy) String() string {
	switch p {
	case CorruptAbort:
		return "abort"
	case CorruptRebuild:
		return "rebuild"
	case CorruptFlush:
		return "flush"
	default:
		return "unknown"
	}
}

// Recovery records one corruption recovery event.
type Recovery struct {
	// Trigger describes the detection source: the failing operation or
	// "audit", plus the underlying error text.
	Trigger string
	// Action is "rebuild" or "flush".
	Action string
	// Detected is the clock cycle at detection (0 without a Clock).
	Detected uint64
	// Repaired is the clock cycle when service resumed; Repaired -
	// Detected is the recovery latency in cycles.
	Repaired uint64
	// Lost counts packets discarded by this recovery (flush only).
	Lost int
}

// DefaultClockHz is the paper's implementation clock: 35.8 Mpps × 4
// cycles per operation window.
const DefaultClockHz = 143.2e6

// Result is the outcome of a scheduler run.
type Result struct {
	// Departures in service order.
	Departures []schedulers.Departure
	// ExactTags holds each packet's unquantized WFQ finishing tag,
	// indexed by packet ID.
	ExactTags []float64
	// QuantizedTags holds the sorter tags, indexed by packet ID.
	QuantizedTags []int
	// Inversions counts served pairs out of exact-tag order — the
	// quantization accuracy cost (0 at fine granularity).
	Inversions int64
	// SectionsReclaimed counts Fig. 6 bulk deletions issued.
	SectionsReclaimed int
	// Sorter reports the sort/retrieve circuit traffic.
	Sorter core.Stats
	// PeakBuffer is the packet buffer high-water mark.
	PeakBuffer int
	// Windows is the number of 4-cycle sorter windows consumed.
	Windows uint64
	// Dropped counts arrivals rejected by the overload policy.
	Dropped int
	// Detections counts corrupt-state detections (operation failures
	// and audit findings) handled by the recovery policy.
	Detections int
	// Recoveries lists every recovery action taken, in order.
	Recoveries []Recovery
	// Lost counts admitted packets discarded by flush recoveries (they
	// appear in no Departure).
	Lost int
}

// Scheduler is the Fig. 1 datapath. Not safe for concurrent use.
type Scheduler struct {
	cfg    Config
	quant  *wfq.Quantizer
	sorter *core.Sorter
	buffer *packet.Buffer
	red    *aqm.RED
	live   liveTags
	// ranked[slot] is what cfg.Program issued for the packet in that
	// buffer slot, handed back to OnServe at departure.
	ranked []rank.Ranked
}

// Validate checks the configuration and normalizes documented
// zero-value defaults in place (the paper's 143.2 MHz clock, a
// 4096-link sorter, buffer slots matching the sorter, 1500-byte MTU).
// New calls it; callers only need it to pre-validate.
// Granularity, when zero, is derived in New from the built sorter's
// geometry (it needs the tag range).
func (c *Config) Validate() error {
	if len(c.Weights) == 0 {
		return fmt.Errorf("scheduler: no sessions")
	}
	if c.CapacityBps <= 0 {
		return fmt.Errorf("scheduler: capacity %v must be positive", c.CapacityBps)
	}
	if c.ClockHz == 0 {
		c.ClockHz = DefaultClockHz
	}
	if c.ClockHz <= 0 {
		return fmt.Errorf("scheduler: clock %v must be positive", c.ClockHz)
	}
	if c.SorterCapacity == 0 {
		c.SorterCapacity = 4096
	}
	if c.BufferSlots == 0 {
		c.BufferSlots = c.SorterCapacity
	}
	if c.MaxPacketBytes == 0 {
		c.MaxPacketBytes = 1500
	}
	return nil
}

// New builds a scheduler. The configuration is validated and defaulted
// via Config.Validate.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sorter, err := core.New(core.Config{
		Capacity: cfg.SorterCapacity,
		Mode:     core.ModeHardware,
		MemTech:  cfg.MemTech,
		Fabric:   cfg.Fabric,
		Clock:    cfg.Clock,
	})
	if err != nil {
		return nil, fmt.Errorf("scheduler: %w", err)
	}
	if cfg.Granularity == 0 {
		// Worst live tag window: a full buffer of maximum packets on the
		// lightest session, in virtual-time units L/(φ·C).
		minW := cfg.Weights[0]
		for _, w := range cfg.Weights {
			if w < minW {
				minW = w
			}
		}
		maxBits := float64(cfg.MaxPacketBytes) * 8
		window := float64(cfg.BufferSlots) * maxBits / (minW * cfg.CapacityBps)
		maxUnits := float64(sorter.TagRange() - sorter.SectionSize())
		cfg.Granularity = window / maxUnits
	}
	if cfg.Program == nil {
		cfg.Program, err = rank.NewWFQ(cfg.Weights, cfg.CapacityBps)
		if err != nil {
			return nil, fmt.Errorf("scheduler: %w", err)
		}
	}
	quant, err := wfq.NewQuantizer(cfg.Granularity, sorter.TagBits(), sorter.Sections())
	if err != nil {
		return nil, fmt.Errorf("scheduler: %w", err)
	}
	buffer, err := packet.NewBuffer(cfg.BufferSlots)
	if err != nil {
		return nil, fmt.Errorf("scheduler: %w", err)
	}
	var red *aqm.RED
	switch cfg.OnFull {
	case FullError, FullTailDrop:
	case FullRED:
		rc := cfg.RED
		if rc.MinThreshold == 0 && rc.MaxThreshold == 0 {
			rc = aqm.REDConfig{
				MinThreshold: float64(cfg.BufferSlots) / 4,
				MaxThreshold: float64(cfg.BufferSlots) * 3 / 4,
				MaxP:         0.05,
			}
		}
		red, err = aqm.NewRED(rc)
		if err != nil {
			return nil, fmt.Errorf("scheduler: %w", err)
		}
	default:
		return nil, fmt.Errorf("scheduler: unknown overload policy %d", int(cfg.OnFull))
	}
	return &Scheduler{cfg: cfg, quant: quant, sorter: sorter, buffer: buffer, red: red,
		live: newLiveTags(cfg.BufferSlots), ranked: make([]rank.Ranked, cfg.BufferSlots)}, nil
}

// Granularity returns the active quantization step.
func (s *Scheduler) Granularity() float64 { return s.cfg.Granularity }

// Audit runs a sorter integrity audit through the memory debug ports
// (no functional accesses, no cycles charged).
func (s *Scheduler) Audit() *core.IntegrityReport { return s.sorter.Audit() }

// Sorter exposes the sort/retrieve circuit for inspection (fault
// campaigns and tests).
func (s *Scheduler) Sorter() *core.Sorter { return s.sorter }

// errFlushed signals internally that a flush recovery emptied the
// datapath, so the in-flight operation's target no longer exists.
var errFlushed = errors.New("scheduler: datapath flushed")

// SupportedPPS returns the circuit's packet throughput ceiling: one
// combined insert+extract window per packet (paper §IV). The window is
// 4 cycles on the paper's SDR SRAM, 2 on QDRII, 3 on RLDRAM.
func (s *Scheduler) SupportedPPS() float64 {
	return s.cfg.ClockHz / float64(s.sorter.CyclesPerWindow())
}

// SupportedLineRate returns the line rate sustainable at the given mean
// packet size (the paper's 40 Gb/s at 140 bytes).
func (s *Scheduler) SupportedLineRate(meanPacketBytes float64) float64 {
	return s.SupportedPPS() * meanPacketBytes * 8
}

// Run simulates the datapath over an arrival trace, serving the output
// link at the configured capacity.
func (s *Scheduler) Run(arrivals []packet.Packet) (*Result, error) {
	if err := checkPacketIDs(arrivals); err != nil {
		return nil, err
	}
	arr := make([]packet.Packet, len(arrivals))
	copy(arr, arrivals)
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].Arrival < arr[j].Arrival })

	res := &Result{
		ExactTags:     make([]float64, len(arr)),
		QuantizedTags: make([]int, len(arr)),
		Departures:    make([]schedulers.Departure, 0, len(arr)),
	}
	minLiveF := 0.0 // smallest finishing tag still in the sorter
	live := &s.live
	live.reset()

	cyc := func() uint64 {
		if s.cfg.Clock != nil {
			return s.cfg.Clock.Now()
		}
		return 0
	}
	// flush is the last-resort recovery: reinitialize the sorter and the
	// packet buffer, discarding everything queued. extraLost accounts
	// packets lost outside the sorter (e.g. an extracted tag whose
	// buffer slot turned out to be damaged).
	flush := func(rec Recovery, extraLost int) {
		lost := s.sorter.Flush() + extraLost
		if s.red != nil {
			for i := 0; i < lost-extraLost; i++ {
				s.red.Depart()
			}
		}
		s.buffer.Reset()
		live.reset()
		minLiveF = 0
		rec.Action = "flush"
		rec.Lost = lost
		rec.Repaired = cyc()
		res.Lost += lost
		res.Recoveries = append(res.Recoveries, rec)
	}
	// recoverCorrupt applies the configured policy (never called under
	// CorruptAbort). It reports whether the recovery emptied the
	// datapath, meaning the caller's in-flight operation target is gone.
	recoverCorrupt := func(trigger string) (flushed bool) {
		res.Detections++
		rec := Recovery{Trigger: trigger, Detected: cyc()}
		if s.cfg.OnCorrupt == CorruptRebuild {
			if err := s.sorter.Rebuild(); err == nil {
				rec.Action = "rebuild"
				rec.Repaired = cyc()
				res.Recoveries = append(res.Recoveries, rec)
				return false
			}
			// The authoritative copy itself is damaged: escalate.
		}
		flush(rec, 0)
		return true
	}
	// runOp runs a sorter operation under the corruption policy. Corrupt
	// failures are pre-commit, so after a successful rebuild the
	// operation is retried once; after a flush it returns errFlushed.
	runOp := func(what string, op func() error) error {
		err := op()
		if err == nil || !errors.Is(err, core.ErrCorrupt) || s.cfg.OnCorrupt == CorruptAbort {
			return err
		}
		if recoverCorrupt(what + ": " + err.Error()) {
			return errFlushed
		}
		return op()
	}

	admit := func(p packet.Packet) error {
		// Overload policy gate.
		switch s.cfg.OnFull {
		case FullTailDrop:
			if s.buffer.Used() >= s.buffer.Capacity() {
				res.Dropped++
				return nil
			}
		case FullRED:
			if s.buffer.Used() >= s.buffer.Capacity() || !s.red.Arrive() {
				res.Dropped++
				return nil
			}
		}
		slot, err := s.buffer.Store(p)
		if err != nil {
			return fmt.Errorf("scheduler: packet %d: %w", p.ID, err)
		}
		r, err := s.cfg.Program.Rank(p, p.Arrival)
		if err != nil {
			return fmt.Errorf("scheduler: packet %d: %w", p.ID, err)
		}
		s.ranked[slot] = r
		f := r.Rank
		res.ExactTags[p.ID] = f
		// The tag computation circuit enforces the paper's invariant
		// (§III-A): issued tags are never below the smallest tag still
		// in the sorter. A would-be undercut (a high-weight arrival
		// whose exact finishing tag beats every queued one) is clamped
		// to the minimum and served FCFS behind it; the Inversions
		// metric counts the resulting deviations from exact WFQ order.
		fUsed := f
		mf := fUsed
		if s.sorter.Len() > 0 {
			if fUsed < minLiveF {
				fUsed = minLiveF
			}
			mf = minLiveF
		}
		tag, reclaim, err := s.quant.Quantize(fUsed, mf)
		if err != nil {
			return fmt.Errorf("scheduler: packet %d: %w", p.ID, err)
		}
		for _, sec := range reclaim {
			if err := runOp("reclaim", func() error { return s.sorter.ReclaimSection(sec) }); err != nil {
				if errors.Is(err, errFlushed) {
					res.Lost++ // the freshly buffered packet went with the flush
					return nil
				}
				return fmt.Errorf("scheduler: reclaim section %d: %w", sec, err)
			}
			res.SectionsReclaimed++
		}
		res.QuantizedTags[p.ID] = tag
		if err := runOp("insert", func() error { return s.sorter.Insert(tag, slot) }); err != nil {
			if errors.Is(err, errFlushed) {
				res.Lost++ // the freshly buffered packet went with the flush
				return nil
			}
			return fmt.Errorf("scheduler: packet %d: %w", p.ID, err)
		}
		if s.sorter.Len() == 1 || fUsed < minLiveF {
			minLiveF = fUsed
		}
		live.add(slot, fUsed)
		return nil
	}

	serve := func(now float64) (schedulers.Departure, error) {
		var e taglist.Entry
		err := runOp("extract", func() error {
			var eerr error
			e, eerr = s.sorter.ExtractMin()
			return eerr
		})
		if err != nil {
			if errors.Is(err, errFlushed) {
				return schedulers.Departure{}, err
			}
			return schedulers.Departure{}, fmt.Errorf("scheduler: extract: %w", err)
		}
		p, err := s.buffer.Load(e.Payload)
		if err != nil {
			// The extracted tag's payload pointer resolves to no stored
			// packet: the tag store's data field was damaged. That
			// packet is unrecoverable (the pointer was its only copy)
			// and the chain can no longer be trusted.
			cerr := fmt.Errorf("scheduler: buffer: %w: %v", core.ErrCorrupt, err)
			if s.cfg.OnCorrupt == CorruptAbort {
				return schedulers.Departure{}, cerr
			}
			res.Detections++
			flush(Recovery{Trigger: "load: " + err.Error(), Detected: cyc()}, 1)
			return schedulers.Departure{}, errFlushed
		}
		if s.red != nil {
			s.red.Depart()
		}
		s.cfg.Program.OnServe(p, s.ranked[e.Payload], now)
		// Track the live minimum for the quantizer's window bookkeeping.
		live.remove(e.Payload)
		minLiveF = live.min()
		finish := now + p.Bits()/s.cfg.CapacityBps
		return schedulers.Departure{Packet: p, Start: now, Finish: finish}, nil
	}

	next := 0
	now := 0.0
	sinceAudit := 0
	for next < len(arr) || s.sorter.Len() > 0 {
		if s.sorter.Len() == 0 && now < arr[next].Arrival {
			now = arr[next].Arrival
		}
		for next < len(arr) && arr[next].Arrival <= now {
			if err := admit(arr[next]); err != nil {
				return nil, err
			}
			next++
		}
		if s.sorter.Len() == 0 {
			continue
		}
		dep, err := serve(now)
		if err != nil {
			if errors.Is(err, errFlushed) {
				continue
			}
			return nil, err
		}
		res.Departures = append(res.Departures, dep)
		now = dep.Finish
		if s.cfg.AuditEvery > 0 {
			if sinceAudit++; sinceAudit >= s.cfg.AuditEvery {
				sinceAudit = 0
				if aerr := s.sorter.Audit().Err(); aerr != nil {
					if s.cfg.OnCorrupt == CorruptAbort {
						return nil, fmt.Errorf("scheduler: %w", aerr)
					}
					recoverCorrupt("audit: " + aerr.Error())
				}
			}
		}
	}

	// Service-order quality versus exact tags.
	servedTags := make([]float64, len(res.Departures))
	for i, d := range res.Departures {
		servedTags[i] = res.ExactTags[d.Packet.ID]
	}
	res.Inversions = metrics.TotalInversions(servedTags)
	res.Sorter = s.sorter.StatsSnapshot()
	res.PeakBuffer = s.buffer.PeakUsed()
	res.Windows = res.Sorter.ListWindows
	return res, nil
}

// checkPacketIDs rejects a trace whose packet IDs cannot index the
// per-packet tag tables: Result.ExactTags and QuantizedTags hold one
// entry per arrival, so IDs must be distinct and in [0, len(arrivals)).
// Traces arrive from files (wfqtrace -in), so this is input validation.
func checkPacketIDs(arrivals []packet.Packet) error {
	seen := make([]bool, len(arrivals))
	for i, p := range arrivals {
		if p.ID < 0 || p.ID >= len(arrivals) {
			return fmt.Errorf("scheduler: arrival %d: packet id %d outside [0,%d)", i, p.ID, len(arrivals))
		}
		if seen[p.ID] {
			return fmt.Errorf("scheduler: arrival %d: packet id %d used twice", i, p.ID)
		}
		seen[p.ID] = true
	}
	return nil
}
