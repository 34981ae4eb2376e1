package pqueue

import (
	"fmt"

	"wfqsort/internal/core"
	"wfqsort/internal/taglist"
)

// BitTree is the single-bit (binary) occupancy tree: one marker bit per
// tag value, organized in a binary trie of W levels. Finding the minimum
// walks one node per tag bit — Table I's O(W) hardware row — half the
// branching acceleration of the paper's multi-bit tree.
type BitTree struct {
	opCounter
	levels   [][]uint64 // levels[l] packs 2^l node bits... stored as bitsets
	tagBits  int
	tagRange int
	fifo     map[int][]int
	counts   []int
	n        int
}

// NewBitTree builds a binary occupancy tree over a 2^tagBits universe.
func NewBitTree(tagBits int) (*BitTree, error) {
	if tagBits <= 0 || tagBits > 24 {
		return nil, fmt.Errorf("pqueue: bit tree bits %d out of range 1..24", tagBits)
	}
	t := &BitTree{
		tagBits:  tagBits,
		tagRange: 1 << uint(tagBits),
		fifo:     make(map[int][]int),
		counts:   make([]int, 1<<uint(tagBits)),
	}
	t.levels = make([][]uint64, tagBits+1)
	for l := 0; l <= tagBits; l++ {
		words := (1<<uint(l) + 63) / 64
		t.levels[l] = make([]uint64, words)
	}
	return t, nil
}

// Name implements MinTagQueue.
func (t *BitTree) Name() string { return "binary tree (bitwise)" }

// Model implements MinTagQueue.
func (t *BitTree) Model() Model { return ModelSort }

// Exact implements MinTagQueue.
func (t *BitTree) Exact() bool { return true }

// Len implements MinTagQueue.
func (t *BitTree) Len() int { return t.n }

func (t *BitTree) getBit(level, idx int) bool {
	return t.levels[level][idx/64]&(1<<uint(idx%64)) != 0
}

func (t *BitTree) setBit(level, idx int, on bool) {
	if on {
		t.levels[level][idx/64] |= 1 << uint(idx%64)
	} else {
		t.levels[level][idx/64] &^= 1 << uint(idx%64)
	}
}

// Insert implements MinTagQueue.
func (t *BitTree) Insert(tag, payload int) error {
	if tag < 0 || tag >= t.tagRange {
		t.abort()
		return fmt.Errorf("pqueue: bit tree tag %d outside [0,%d)", tag, t.tagRange)
	}
	t.fifo[tag] = append(t.fifo[tag], payload)
	t.counts[tag]++
	t.n++
	// Marking is one parallel write across the per-level banks: every
	// level's node address derives directly from the tag, so no
	// sequential walk is needed (unlike the minimum search).
	t.touch(1)
	if t.counts[tag] == 1 {
		for l := t.tagBits; l >= 0; l-- {
			idx := tag >> uint(t.tagBits-l)
			if t.getBit(l, idx) {
				break
			}
			t.setBit(l, idx, true)
		}
	}
	t.endInsert()
	return nil
}

// ExtractMin implements MinTagQueue.
func (t *BitTree) ExtractMin() (Entry, error) {
	if t.n == 0 {
		return Entry{}, ErrEmpty
	}
	// Walk down preferring the 0 child: one node access per level.
	idx := 0
	t.touch(1)
	if !t.getBit(0, 0) {
		t.abort()
		return Entry{}, fmt.Errorf("pqueue: bit tree corrupt: empty root with %d entries", t.n)
	}
	for l := 1; l <= t.tagBits; l++ {
		t.touch(1)
		if t.getBit(l, idx*2) {
			idx = idx * 2
		} else {
			idx = idx*2 + 1
		}
	}
	tag := idx
	q := t.fifo[tag]
	e := Entry{Tag: tag, Payload: q[0]}
	t.counts[tag]--
	t.n--
	if t.counts[tag] == 0 {
		delete(t.fifo, tag)
		// Clear the path bits upward while subtrees empty. In hardware
		// the per-level memories are distinct banks, so this write-back
		// overlaps the next walk and adds no sequential accesses
		// (Table I counts the lookup walk only).
		for l := t.tagBits; l >= 0; l-- {
			i := tag >> uint(t.tagBits-l)
			t.setBit(l, i, false)
			if l > 0 {
				sibling := i ^ 1
				if t.getBit(l, sibling) {
					break
				}
			}
		}
	} else {
		t.fifo[tag] = q[1:]
	}
	t.endExtract()
	return e, nil
}

// MultiBitTree adapts the paper's tag sort/retrieve circuit (the core
// package) to the MinTagQueue interface: Table I's winning row, with
// W/k node accesses per lookup and fixed-time extraction from the
// register-cached list head.
//
// Access accounting matches Table I's metric — worst-case *sequential*
// memory accesses per operation. The circuit's distributed memories
// serve the backup path, translation table write-back, and tag-store
// window in parallel pipeline stages, so an insert costs the tree's
// sequential search depth plus one translation read, and an extract
// costs one access to the register-cached head.
type MultiBitTree struct {
	sorter *core.Sorter
	stats  OpStats
}

// NewMultiBitTree builds the paper's architecture as a queue over the
// default 12-bit silicon geometry, sized for capacity entries.
func NewMultiBitTree(capacity int) (*MultiBitTree, error) {
	s, err := core.New(core.Config{Capacity: capacity, Mode: core.ModeEager})
	if err != nil {
		return nil, err
	}
	return &MultiBitTree{sorter: s}, nil
}

// NewMultiBitTreeGeometry builds the paper's architecture over an
// explicit tree geometry — levels × literalBits tag bits — for tag
// spaces wider than the 12-bit silicon default (the millions-of-timers
// workload keys a 20-bit deadline space). The taglist link word bounds
// the combination: tag bits + ⌈log₂ capacity⌉ + 24 payload bits must
// fit in 64.
func NewMultiBitTreeGeometry(capacity, levels, literalBits int) (*MultiBitTree, error) {
	s, err := core.New(core.Config{
		Capacity:    capacity,
		Mode:        core.ModeEager,
		Levels:      levels,
		LiteralBits: literalBits,
	})
	if err != nil {
		return nil, err
	}
	return &MultiBitTree{sorter: s}, nil
}

// Name implements MinTagQueue.
func (m *MultiBitTree) Name() string { return "multi-bit tree (this work)" }

// Model implements MinTagQueue.
func (m *MultiBitTree) Model() Model { return ModelSort }

// Exact implements MinTagQueue.
func (m *MultiBitTree) Exact() bool { return true }

// Len implements MinTagQueue.
func (m *MultiBitTree) Len() int { return m.sorter.Len() }

// Insert implements MinTagQueue.
func (m *MultiBitTree) Insert(tag, payload int) error {
	if err := m.sorter.Insert(tag, payload); err != nil {
		return err
	}
	// Sequential cost: the tree search's node reads (one per level; the
	// backup path runs in parallel banks) plus one translation-table
	// read to resolve the insert position.
	d := uint64(m.sorter.LastSearchDepth()) + 1
	m.stats.Inserts++
	m.stats.InsertAccesses += d
	if d > m.stats.WorstInsert {
		m.stats.WorstInsert = d
	}
	return nil
}

// ExtractMin implements MinTagQueue.
func (m *MultiBitTree) ExtractMin() (Entry, error) {
	e, err := m.sorter.ExtractMin()
	if err != nil {
		if err == taglist.ErrEmpty {
			return Entry{}, ErrEmpty
		}
		return Entry{}, err
	}
	// Sequential cost: one access — the head link is register-cached
	// and its refresh/write-back overlaps the service window.
	const d = 1
	m.stats.Extracts++
	m.stats.ExtractAccesses += d
	if d > m.stats.WorstExtract {
		m.stats.WorstExtract = d
	}
	return Entry{Tag: e.Tag, Payload: e.Payload}, nil
}

// Stats implements MinTagQueue.
func (m *MultiBitTree) Stats() OpStats { return m.stats }

// ResetStats implements MinTagQueue.
func (m *MultiBitTree) ResetStats() {
	m.stats = OpStats{}
	m.sorter.ResetStats()
}
