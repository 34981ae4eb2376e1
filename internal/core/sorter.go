// Package core implements the paper's primary contribution: the tag
// sort/retrieve circuit (paper Fig. 3). It composes the multi-bit search
// tree, the translation table, and the linked-list tag storage memory
// into an associative structure that stores every finishing tag in the
// scheduler in sorted order and returns the smallest within a guaranteed
// fixed time.
//
// The circuit follows the "sort model" of paper §II-C: the lookup work is
// done at insertion, so servicing the minimum depends only on the fixed
// tag-store access time. Insertion is pipelined — the three-level tree
// plus translation table take four clock cycles, matched to the tag
// store's four-cycle (2-read/2-write) window — giving a throughput of one
// tag per WindowCycles regardless of occupancy.
package core

import (
	"errors"
	"fmt"
	"sort"

	"wfqsort/internal/hwsim"
	"wfqsort/internal/membus"
	"wfqsort/internal/pipeline"
	"wfqsort/internal/taglist"
	"wfqsort/internal/transtable"
	"wfqsort/internal/trie"
)

// WindowCycles is the pipelined cycle budget per sorter operation: the
// tree + translation table stage and the tag-store stage each take four
// cycles and overlap, so steady-state throughput is one tag every four
// cycles (paper §III-A).
const WindowCycles = taglist.WindowCycles

// ErrCorrupt marks a detected integrity violation in the sorter's three
// memories (search tree, translation table, tag store) or their cross-
// structure relationships. It is the hwsim-level sentinel re-exported at
// the circuit boundary so callers can write
// errors.Is(err, core.ErrCorrupt) regardless of which layer detected
// the fault. A corrupt sorter can be repaired with Rebuild (tree and
// translation faults — the tag store is the authoritative copy) or
// abandoned with Flush; see Audit for structured detection.
var ErrCorrupt = hwsim.ErrCorrupt

// ErrBehindMinimum is returned in hardware mode with StrictMonotonic set
// when an inserted tag is smaller than the current minimum, violating the
// WFQ precondition the silicon relies on ("the WFQ algorithm always
// produces tags larger than, or equal to, the smallest tag already in the
// system", paper §III-A).
var ErrBehindMinimum = errors.New("core: tag behind current minimum (WFQ monotonicity violated)")

// ErrNotEager is returned when a dynamic update (Remove, Rerank) is
// attempted in hardware mode. The silicon's stale markers make group
// location by tree search unsound after departures, so in-place updates
// are an eager-mode capability; hardware mode reclaims in bulk with
// ReclaimSection instead.
var ErrNotEager = errors.New("core: dynamic updates (Remove/Rerank) require ModeEager")

// Mode selects the marker-reclamation policy.
type Mode int

const (
	// ModeEager removes a tag's tree marker and translation entry as
	// soon as its last duplicate departs. This makes the sorter a
	// general-purpose priority structure with no insert-order
	// precondition. It is the library default.
	ModeEager Mode = iota + 1
	// ModeHardware reproduces the silicon exactly: departures leave
	// markers in place; stale markers sit harmlessly below the current
	// minimum, and whole sections of the cyclic tag space are reclaimed
	// in bulk with ReclaimSection as virtual time advances (paper
	// Fig. 6). Inserts below the current minimum are rejected with
	// ErrBehindMinimum.
	ModeHardware
)

// Config describes a sorter instance.
type Config struct {
	// Tree geometry. Zero value selects the silicon geometry
	// (3 levels × 4-bit literals → 12-bit tags).
	Levels      int
	LiteralBits int
	// Capacity is the number of tag-store links (packets in flight).
	Capacity int
	// PayloadBits is the packet-pointer width per link (default 24).
	PayloadBits int
	// MemTech is the tag-store memory technology (default SDR SRAM, the
	// paper's implementation; QDRII halves the window to 2 cycles).
	MemTech taglist.MemTech
	// Mode selects eager or hardware reclamation (default ModeEager).
	Mode Mode
	// StrictMonotonic, in hardware mode, rejects inserts below the
	// current minimum with ErrBehindMinimum instead of treating them as
	// post-wraparound values. Enable it for workloads that never wrap
	// (it catches tag-computation bugs); leave it off to model the
	// paper's cyclic tag space, where an insert that finds no smaller
	// marker lands after the largest live tag (the sections below it
	// having been reclaimed, paper Fig. 6).
	StrictMonotonic bool
	// Fabric, when non-nil, is the memory fabric every component
	// memory (tree levels, translation table, tag storage) is
	// provisioned from; all accesses share its clock domain and port
	// arbiter. When nil, a private fabric is built on Clock.
	Fabric *membus.Fabric
	// Clock, when non-nil and Fabric is nil, is the clock domain of
	// the sorter's private fabric.
	Clock *hwsim.Clock
}

// Stats aggregates traffic across the sorter's components.
type Stats struct {
	Inserts        uint64
	Extracts       uint64
	Combined       uint64 // simultaneous insert+extract windows
	Removes        uint64 // dynamic in-place removals
	Reranks        uint64 // dynamic re-rank (remove + reinsert) pairs
	TreeSearches   uint64
	TreeNodeReads  uint64
	TreeNodeWrites uint64
	TreeMaxDepth   int // worst sequential node reads in any search
	TreeLastDepth  int // sequential node reads of the most recent search
	TableAccesses  uint64
	ListWindows    uint64
	ListAccesses   uint64
}

// Sorter is the tag sort/retrieve circuit. It is not safe for concurrent
// use: the modelled hardware is a single synchronous pipeline.
type Sorter struct {
	cfg   Config
	fab   *membus.Fabric
	tree  *trie.Trie
	table *transtable.Table
	list  *taglist.List

	inserts  uint64
	extracts uint64
	combined uint64
	removes  uint64
	reranks  uint64
}

// Validate checks the configuration and normalizes documented
// zero-value defaults in place (silicon tree geometry, ModeEager). New
// calls it; callers only need it to pre-validate a config. Tree
// geometry and tag-store parameters beyond these checks are validated
// by the component constructors during New.
func (c *Config) Validate() error {
	if c.Levels == 0 && c.LiteralBits == 0 {
		def := trie.DefaultConfig()
		c.Levels, c.LiteralBits = def.Levels, def.LiteralBits
	}
	if c.Mode == 0 {
		c.Mode = ModeEager
	}
	if c.Mode != ModeEager && c.Mode != ModeHardware {
		return fmt.Errorf("core: unknown mode %d", int(c.Mode))
	}
	if c.Capacity < 2 {
		return fmt.Errorf("core: capacity %d must be at least 2", c.Capacity)
	}
	return nil
}

// New builds an empty sorter. The configuration is validated and
// defaulted via Config.Validate.
func New(cfg Config) (*Sorter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	registerLevels := cfg.Levels - 1
	if registerLevels > 2 {
		registerLevels = 2
	}
	fab := cfg.Fabric
	if fab == nil {
		fab = membus.New(cfg.Clock)
	}
	tree, err := trie.New(trie.Config{
		Levels:         cfg.Levels,
		LiteralBits:    cfg.LiteralBits,
		RegisterLevels: registerLevels,
		Fabric:         fab,
	})
	if err != nil {
		return nil, fmt.Errorf("core: tree: %w", err)
	}
	addrBits := 1
	for 1<<uint(addrBits) < cfg.Capacity {
		addrBits++
	}
	table, err := transtable.New(tree.TagBits(), addrBits, fab)
	if err != nil {
		return nil, fmt.Errorf("core: translation table: %w", err)
	}
	list, err := taglist.New(taglist.Config{
		Capacity:    cfg.Capacity,
		TagBits:     tree.TagBits(),
		PayloadBits: cfg.PayloadBits,
		Tech:        cfg.MemTech,
		Fabric:      fab,
	})
	if err != nil {
		return nil, fmt.Errorf("core: tag store: %w", err)
	}
	return &Sorter{cfg: cfg, fab: fab, tree: tree, table: table, list: list}, nil
}

// Fabric returns the memory fabric holding the sorter's component
// memories (shared when Config.Fabric was set, private otherwise).
func (s *Sorter) Fabric() *membus.Fabric { return s.fab }

// TagBits returns the tag width (tree levels × literal bits).
func (s *Sorter) TagBits() int { return s.tree.TagBits() }

// TagRange returns the number of representable tag values.
func (s *Sorter) TagRange() int { return s.tree.Capacity() }

// Capacity returns the number of tag-store links.
func (s *Sorter) Capacity() int { return s.list.Capacity() }

// Len returns the number of stored tags.
func (s *Sorter) Len() int { return s.list.Len() }

// Sections returns the number of top-level tag-space sections (the tree's
// branching factor): the shaded bar of paper Fig. 6.
func (s *Sorter) Sections() int { return s.tree.Width() }

// SectionSize returns the number of tag values per section.
func (s *Sorter) SectionSize() int { return s.tree.Capacity() / s.tree.Width() }

// Mode returns the reclamation mode.
func (s *Sorter) Mode() Mode { return s.cfg.Mode }

// CyclesPerWindow returns the clock cycles one operation window occupies
// on the configured tag-store memory technology (4 for the paper's SDR
// SRAM, 2 for QDRII, 3 for RLDRAM).
func (s *Sorter) CyclesPerWindow() int { return s.list.WindowCyclesUsed() }

// Pipeline returns the timing model of this sorter's insert datapath:
// one stage per tree level, the translation table, and the tag-store
// window (paper §III-A's balance argument, executable).
func (s *Sorter) Pipeline() (*pipeline.Pipe, error) {
	return pipeline.Datapath(s.tree.Levels(), s.list.WindowCyclesUsed())
}

// StatsSnapshot returns aggregated component traffic.
func (s *Sorter) StatsSnapshot() Stats {
	ts := s.tree.Stats()
	return Stats{
		Inserts:        s.inserts,
		Extracts:       s.extracts,
		Combined:       s.combined,
		Removes:        s.removes,
		Reranks:        s.reranks,
		TreeSearches:   ts.Searches,
		TreeNodeReads:  ts.NodeReads,
		TreeNodeWrites: ts.NodeWrites,
		TreeMaxDepth:   ts.MaxReadDepth,
		TreeLastDepth:  ts.LastDepth,
		TableAccesses:  s.table.Stats().Accesses(),
		ListWindows:    s.list.Windows(),
		ListAccesses:   s.list.MemStats().Accesses(),
	}
}

// LastSearchDepth returns the sequential node reads of the most recent
// tree search — Stats.TreeLastDepth without the snapshot, for callers
// that account every operation.
func (s *Sorter) LastSearchDepth() int { return s.tree.Stats().LastDepth }

// ResetStats zeroes all traffic counters.
func (s *Sorter) ResetStats() {
	s.inserts, s.extracts, s.combined = 0, 0, 0
	s.removes, s.reranks = 0, 0
	s.tree.ResetStats()
	s.table.ResetStats()
	s.list.ResetStats()
}

// MemoryBits reports the storage of each component in bits, in the order
// tree levels..., translation table, tag store (paper Table II's memory
// inventory).
func (s *Sorter) MemoryBits() (tree []int, table, store int) {
	return s.tree.MemoryBitsPerLevel(), s.table.MemoryBits(), s.list.Capacity() * (s.tree.TagBits() + 1)
}

// PeekMin returns the smallest stored tag without removing it, at zero
// memory cost (register-cached head).
func (s *Sorter) PeekMin() (taglist.Entry, bool) {
	return s.list.PeekMin()
}

// resolveInsert runs the tree search + translation lookup pipeline stage,
// returning the predecessor link address, or atHead=true when the new tag
// must become the list head. On success the tag's marker is committed to
// the tree.
func (s *Sorter) resolveInsert(tag int) (afterAddr int, atHead bool, err error) {
	res, err := s.tree.SearchClosest(tag)
	if err != nil {
		return 0, false, err
	}
	closest := res.Closest
	switch {
	case res.Found:
		// Use the found match (exact matches insert after the newest
		// duplicate, paper Fig. 11).
	case s.Len() == 0 || s.cfg.Mode == ModeEager:
		// Initialization mode, or the eager library mode's linear
		// semantics: the tag becomes the new minimum.
		if err := s.tree.Mark(tag); err != nil {
			return 0, false, err
		}
		return 0, true, nil
	case s.cfg.StrictMonotonic:
		head, _ := s.list.PeekMin()
		return 0, false, fmt.Errorf("%w: tag %d < minimum %d", ErrBehindMinimum, tag, head.Tag)
	default:
		// Cyclic tag space (paper Fig. 6): no marker at or below the tag
		// exists. Two legal interpretations remain: the tag is the new
		// minimum (a high-weight arrival undercutting every queued tag),
		// or it wrapped past the end of the space and belongs after the
		// largest live tag. With the quantizer's guard band keeping the
		// live window well under the range, the nearest cyclic gap
		// decides.
		max, ok, err := s.tree.Max()
		if err != nil {
			return 0, false, err
		}
		if !ok {
			return 0, true, nil
		}
		head, _ := s.list.PeekMin()
		gapWrap := tag + s.TagRange() - max // distance ahead of max if wrapped
		gapNewMin := head.Tag - tag         // distance below the minimum
		if gapNewMin <= gapWrap {
			if err := s.tree.Mark(tag); err != nil {
				return 0, false, err
			}
			return 0, true, nil
		}
		closest = max
	}
	addr, ok, err := s.table.Lookup(closest)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		return 0, false, fmt.Errorf("core: %w: marker for tag %d has no translation entry", ErrCorrupt, closest)
	}
	if err := s.tree.Mark(tag); err != nil {
		return 0, false, err
	}
	return addr, false, nil
}

// Insert stores a tag with its packet-buffer payload. One pipelined
// operation window: tree search + translation lookup feeding a
// 2-read/2-write tag-store insert (paper Fig. 9).
func (s *Sorter) Insert(tag, payload int) error {
	// Validate capacity and operand ranges before the tree stage so a
	// rejected insert cannot leave an orphaned marker behind.
	if s.list.Len() >= s.list.Capacity() {
		return fmt.Errorf("core: insert tag %d: %w", tag, taglist.ErrFull)
	}
	if err := s.list.CheckEntry(tag, payload); err != nil {
		return err
	}
	afterAddr, atHead, err := s.resolveInsert(tag)
	if err != nil {
		return err
	}
	var addr int
	if atHead {
		addr, err = s.list.InsertHead(tag, payload)
	} else {
		addr, err = s.list.InsertAfter(tag, payload, afterAddr)
	}
	if err != nil {
		return err
	}
	if err := s.table.Set(tag, addr); err != nil {
		return err
	}
	s.inserts++
	return nil
}

// ExtractMin removes and returns the smallest tag (the next packet to
// serve). In eager mode the departing value's marker and translation
// entry are reclaimed when its last duplicate leaves; in hardware mode
// markers persist until ReclaimSection (paper Fig. 6).
func (s *Sorter) ExtractMin() (taglist.Entry, error) {
	head, ok := s.list.PeekMin()
	if !ok {
		return taglist.Entry{}, taglist.ErrEmpty
	}
	lastDuplicate, err := s.isNewestLink(head)
	if err != nil {
		return taglist.Entry{}, err
	}
	// Eager reclamation runs before the list commit: every corruption-
	// detecting step (translation lookup, marker delete) happens while
	// the head is still queued, so a recovery policy can Rebuild and
	// retry the extract without losing the packet.
	if s.cfg.Mode == ModeEager && lastDuplicate {
		if err := s.table.Invalidate(head.Tag); err != nil {
			return taglist.Entry{}, err
		}
		if err := s.tree.Delete(head.Tag); err != nil {
			return taglist.Entry{}, err
		}
	}
	e, err := s.list.ExtractMin()
	if err != nil {
		return taglist.Entry{}, err
	}
	if s.cfg.Mode == ModeHardware && s.list.Len() == 0 {
		// Drained empty: re-enter initialization mode (paper §III-A).
		if err := s.reset(); err != nil {
			return taglist.Entry{}, err
		}
	}
	s.extracts++
	return e, nil
}

// InsertExtractMin performs the paper's simultaneous operation: the
// current minimum departs and a new tag enters in the same four-cycle
// window, reusing the departing link. The departing packet is committed
// at window start, so it is served even if the incoming tag is smaller.
func (s *Sorter) InsertExtractMin(tag, payload int) (taglist.Entry, error) {
	head, ok := s.list.PeekMin()
	if !ok {
		return taglist.Entry{}, taglist.ErrEmpty
	}
	if err := s.list.CheckEntry(tag, payload); err != nil {
		return taglist.Entry{}, err
	}
	lastDuplicate, err := s.isNewestLink(head)
	if err != nil {
		return taglist.Entry{}, err
	}
	afterAddr, atHead, err := s.resolveInsert(tag)
	if err != nil {
		return taglist.Entry{}, err
	}
	var served taglist.Entry
	var newAddr int
	if atHead || afterAddr == head.Addr {
		served, newAddr, err = s.list.InsertHeadExtractMin(tag, payload)
	} else {
		served, newAddr, err = s.list.InsertAfterExtractMin(tag, payload, afterAddr)
	}
	if err != nil {
		return taglist.Entry{}, err
	}
	if err := s.afterDeparture(served, lastDuplicate, tag); err != nil {
		return taglist.Entry{}, err
	}
	if err := s.table.Set(tag, newAddr); err != nil {
		return taglist.Entry{}, err
	}
	s.combined++
	return served, nil
}

// Remove unlinks the oldest stored entry matching (tag, payload) — the
// dynamic-update primitive of the grouped-sorting-queue extension
// (timer cancellation, flow teardown). It is a charged datapath
// operation: one tree search locates the tag's marker, a second search
// at tag-1 plus a translation lookup locate the preceding group's tail
// (the unlink predecessor), and the tag store unlinks inside one
// operation window — the same 2R+2W budget as an insert for the common
// head-of-group case, growing by one read per duplicate scanned. When
// the departing link was the group's newest, the translation entry is
// repointed at the surviving newest; when the group empties, the
// translation entry and the tree marker are reclaimed, exactly as an
// eager extract would.
//
// Remove returns (false, nil) when no matching entry is stored — a
// cancelled-twice timer is not an error. Eager mode only: hardware
// mode returns ErrNotEager. A marker whose translation entry has a
// flipped valid bit surfaces as ErrCorrupt, never a silent miss.
func (s *Sorter) Remove(tag, payload int) (bool, error) {
	if s.cfg.Mode != ModeEager {
		return false, ErrNotEager
	}
	if err := s.list.CheckEntry(tag, payload); err != nil {
		return false, err
	}
	res, err := s.tree.SearchClosest(tag)
	if err != nil {
		return false, err
	}
	if !res.Exact {
		return false, nil // no marker: the tag is not stored
	}
	newest, ok, err := s.table.Lookup(tag)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, fmt.Errorf("core: %w: marker for tag %d has no translation entry", ErrCorrupt, tag)
	}
	// The unlink predecessor is the newest link of the closest strictly
	// smaller marked tag; with none, the group starts at the list head
	// (the eager list is linearly sorted from the head).
	prevAddr := -1
	if tag > 0 {
		pres, err := s.tree.SearchClosest(tag - 1)
		if err != nil {
			return false, err
		}
		if pres.Found {
			prevAddr, ok, err = s.table.Lookup(pres.Closest)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, fmt.Errorf("core: %w: marker for tag %d has no translation entry", ErrCorrupt, pres.Closest)
			}
		}
	}
	rr, err := s.list.RemoveInGroup(prevAddr, tag, payload)
	if err != nil {
		return false, err
	}
	if !rr.Found {
		return false, nil
	}
	if rr.Removed.Addr == newest {
		if rr.PrevSameTag >= 0 {
			if err := s.table.Set(tag, rr.PrevSameTag); err != nil {
				return false, err
			}
		} else {
			if err := s.table.Invalidate(tag); err != nil {
				return false, err
			}
			if err := s.tree.Delete(tag); err != nil {
				return false, err
			}
		}
	}
	s.removes++
	return true, nil
}

// Rerank moves the oldest stored entry matching (tag, payload) to
// newTag — the flow re-weighting / timer re-arm primitive. It is a
// remove followed by a fresh insert, so it charges two operation
// windows and the entry re-enters as the newest among equal tags at
// newTag; Removes and Inserts each count one alongside Reranks. The
// new tag is validated before the remove commits, and the insert
// cannot fail on capacity (the remove just freed a link), so a rerank
// either completes or leaves the sorter unchanged — short of a
// detected ErrCorrupt fault, which is reported. Returns (false, nil)
// when no matching entry is stored. Eager mode only.
func (s *Sorter) Rerank(tag, payload, newTag int) (bool, error) {
	if s.cfg.Mode != ModeEager {
		return false, ErrNotEager
	}
	if err := s.list.CheckEntry(newTag, payload); err != nil {
		return false, err
	}
	found, err := s.Remove(tag, payload)
	if err != nil || !found {
		return found, err
	}
	if err := s.Insert(newTag, payload); err != nil {
		return false, fmt.Errorf("core: rerank reinsert at tag %d: %w", newTag, err)
	}
	s.reranks++
	return true, nil
}

// isNewestLink reports whether the head link is the most recent link of
// its tag value (i.e. no further duplicates remain behind it).
func (s *Sorter) isNewestLink(head taglist.Entry) (bool, error) {
	addr, ok, err := s.table.Lookup(head.Tag)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, fmt.Errorf("core: %w: head tag %d has no translation entry", ErrCorrupt, head.Tag)
	}
	return addr == head.Addr, nil
}

// afterDeparture performs post-service reclamation. insertedTag is the
// tag entering in the same window, or -1 for a plain extract.
func (s *Sorter) afterDeparture(served taglist.Entry, lastDuplicate bool, insertedTag int) error {
	if s.cfg.Mode == ModeEager {
		if lastDuplicate && served.Tag != insertedTag {
			if err := s.table.Invalidate(served.Tag); err != nil {
				return err
			}
			if err := s.tree.Delete(served.Tag); err != nil {
				return err
			}
		}
		return nil
	}
	// Hardware mode: markers persist. When the system drains empty the
	// circuit re-enters initialization mode (paper §III-A), clearing all
	// state so stale markers cannot be observed by later inserts.
	if s.list.Len() == 0 {
		return s.reset()
	}
	return nil
}

func (s *Sorter) reset() error {
	// Bulk-clear every tree section and the translation table.
	for lit := 0; lit < s.tree.Width(); lit++ {
		if _, err := s.tree.DeleteSection(lit); err != nil {
			return err
		}
	}
	s.table.Clear()
	return nil
}

// ReclaimSection bulk-deletes the tag markers of one top-level section of
// the cyclic tag space — the paper's Fig. 6 reclamation, issued by the
// scheduler as virtual time moves past a section boundary so the range
// can be reused after wraparound. The section must lie entirely behind
// the current minimum in cyclic order; with StrictMonotonic set (linear
// operation) this is checked against the list head, while in cyclic
// operation the tag-computation layer is responsible for only reclaiming
// fully-passed sections (wfq.Quantizer does exactly that).
func (s *Sorter) ReclaimSection(section int) error {
	if section < 0 || section >= s.Sections() {
		return fmt.Errorf("core: section %d out of range [0,%d)", section, s.Sections())
	}
	if s.cfg.StrictMonotonic {
		if head, ok := s.list.PeekMin(); ok {
			end := (section + 1) * s.SectionSize()
			if head.Tag < end {
				return fmt.Errorf("core: section %d overlaps live tags (minimum %d < section end %d)", section, head.Tag, end)
			}
		}
	}
	_, err := s.tree.DeleteSection(section)
	return err
}

// Drain removes all tags in sorted order (verification helper).
func (s *Sorter) Drain() ([]taglist.Entry, error) {
	out := make([]taglist.Entry, 0, s.Len())
	for s.Len() > 0 {
		e, err := s.ExtractMin()
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Snapshot returns the stored entries in service order without modifying
// state or counting accesses (verification port).
func (s *Sorter) Snapshot() ([]taglist.Entry, error) {
	return s.list.Walk()
}

// CheckInvariants verifies the cross-component structural invariants
// (verification port, used by tests and available to callers after
// recovery; unlike Snapshot it drives the functional tree/table read
// paths, so it perturbs the access counters):
//
//   - the tag-store chain is intact and cyclically sorted starting at
//     the head (at most one wrap descent);
//   - every live tag value has a tree marker;
//   - every live tag value's translation entry points at its newest
//     link;
//   - in eager mode, every tree marker has a live tag (hardware mode
//     legitimately keeps stale markers below the minimum).
func (s *Sorter) CheckInvariants() error {
	entries, err := s.list.Walk()
	if err != nil {
		return fmt.Errorf("core: invariant: %w", err)
	}
	if len(entries) != s.Len() {
		return fmt.Errorf("core: invariant: %w: walk found %d links, Len is %d", ErrCorrupt, len(entries), s.Len())
	}
	descents := 0
	newest := make(map[int]int, len(entries))
	for i, e := range entries {
		if i > 0 && e.Tag < entries[i-1].Tag {
			descents++
		}
		newest[e.Tag] = e.Addr
	}
	if descents > 1 {
		return fmt.Errorf("core: invariant: %w: list descends %d times (cyclic order allows at most 1)", ErrCorrupt, descents)
	}
	// Check tags in ascending order: the memory access sequence (and the
	// first violation reported) must not depend on map iteration order,
	// or fault-injection campaigns keyed on access indices stop being
	// reproducible.
	tags := make([]int, 0, len(newest))
	for tag := range newest {
		tags = append(tags, tag)
	}
	sort.Ints(tags)
	for _, tag := range tags {
		addr := newest[tag]
		ok, err := s.tree.Contains(tag)
		if err != nil {
			return fmt.Errorf("core: invariant: %w", err)
		}
		if !ok {
			return fmt.Errorf("core: invariant: %w: live tag %d has no tree marker", ErrCorrupt, tag)
		}
		got, ok, err := s.table.Lookup(tag)
		if err != nil {
			return fmt.Errorf("core: invariant: %w", err)
		}
		if !ok {
			return fmt.Errorf("core: invariant: %w: live tag %d has no translation entry", ErrCorrupt, tag)
		}
		if got != addr {
			return fmt.Errorf("core: invariant: %w: translation for tag %d points at %d, newest link is %d", ErrCorrupt, tag, got, addr)
		}
	}
	if s.cfg.Mode == ModeEager {
		if s.tree.Len() != len(newest) {
			return fmt.Errorf("core: invariant: %w: eager tree holds %d markers, %d live values", ErrCorrupt, s.tree.Len(), len(newest))
		}
	}
	return nil
}
