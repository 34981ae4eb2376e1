package pqueue

import (
	"errors"
	"fmt"

	"wfqsort/internal/sharded"
	"wfqsort/internal/taglist"
)

// Sharded adapts the multi-lane sharded.ShardedSorter to the
// MinTagQueue interface: N independent multi-bit-tree lanes under a
// log₂(N)-deep min-combining select tree. Exact, with FCFS among
// duplicate tags (every tag value maps to one lane, so per-lane FCFS is
// global FCFS).
//
// Access accounting follows the Table I convention (worst-case
// sequential accesses): an insert costs the owning lane's tree depth
// plus one translation read — identical to the single-lane circuit,
// because lanes don't stretch the lookup path — and an extract costs
// one head access plus the select tree's log₂(N) comparator levels.
type Sharded struct {
	s     *sharded.ShardedSorter
	stats OpStats
}

// NewSharded builds a sharded multi-bit tree with the given lane count
// (power of two) and total capacity split across lanes.
func NewSharded(lanes, capacity int) (*Sharded, error) {
	if lanes <= 0 {
		return nil, fmt.Errorf("pqueue: sharded lanes %d must be positive", lanes)
	}
	if capacity < 2*lanes {
		return nil, fmt.Errorf("pqueue: sharded capacity %d too small for %d lanes", capacity, lanes)
	}
	s, err := sharded.New(sharded.Config{Lanes: lanes, LaneCapacity: capacity / lanes})
	if err != nil {
		return nil, err
	}
	return &Sharded{s: s}, nil
}

// Sorter exposes the underlying sharded sorter (lane gauges, batching).
func (q *Sharded) Sorter() *sharded.ShardedSorter { return q.s }

// Name implements MinTagQueue.
func (q *Sharded) Name() string {
	return fmt.Sprintf("sharded multi-bit tree (%d lanes)", q.s.Lanes())
}

// Model implements MinTagQueue.
func (q *Sharded) Model() Model { return ModelSort }

// Exact implements MinTagQueue.
func (q *Sharded) Exact() bool { return true }

// Len implements MinTagQueue.
func (q *Sharded) Len() int { return q.s.Len() }

// Insert implements MinTagQueue.
func (q *Sharded) Insert(tag, payload int) error {
	lane := q.s.Lane(q.s.LaneFor(tag))
	if err := q.s.Insert(tag, payload); err != nil {
		return err
	}
	d := uint64(lane.LastSearchDepth()) + 1
	q.stats.Inserts++
	q.stats.InsertAccesses += d
	if d > q.stats.WorstInsert {
		q.stats.WorstInsert = d
	}
	return nil
}

// ExtractMin implements MinTagQueue.
func (q *Sharded) ExtractMin() (Entry, error) {
	e, err := q.s.ExtractMin()
	if err != nil {
		if errors.Is(err, taglist.ErrEmpty) {
			return Entry{}, ErrEmpty
		}
		return Entry{}, err
	}
	d := 1 + uint64(q.s.SelectDepth())
	q.stats.Extracts++
	q.stats.ExtractAccesses += d
	if d > q.stats.WorstExtract {
		q.stats.WorstExtract = d
	}
	return Entry{Tag: e.Tag, Payload: e.Payload}, nil
}

// Stats implements MinTagQueue.
func (q *Sharded) Stats() OpStats { return q.stats }

// ResetStats implements MinTagQueue.
func (q *Sharded) ResetStats() {
	q.stats = OpStats{}
	q.s.ResetStats()
}
