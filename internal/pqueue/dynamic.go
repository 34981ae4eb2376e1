package pqueue

import "fmt"

// This file implements the DynamicQueue capability — Remove and Rerank —
// for every exact backend that can locate an arbitrary stored entry. The
// approximate structures (binning, calendar queues, SP-PIFO) stay plain
// MinTagQueues: once a tag is folded into a bucket the individual entry
// is no longer addressable.
//
// Shared semantics (see the DynamicQueue doc): both ops target the
// OLDEST stored entry matching (tag, payload); a miss returns
// found=false with no state change and is not charged to the access
// counters (matching the miss convention used elsewhere in the package);
// Rerank is counted as one remove plus one fresh insert.

// Compile-time capability checks.
var (
	_ DynamicQueue = (*SortedList)(nil)
	_ DynamicQueue = (*BinaryHeap)(nil)
	_ DynamicQueue = (*BST)(nil)
	_ DynamicQueue = (*VEB)(nil)
	_ DynamicQueue = (*BitTree)(nil)
	_ DynamicQueue = (*MultiBitTree)(nil)
	_ DynamicQueue = (*Sharded)(nil)
)

// Remove implements DynamicQueue. The list is sorted and FCFS among
// duplicates, so the first (tag, payload) match on a head-to-tail walk
// is the oldest; the walk stops at the first larger tag.
func (l *SortedList) Remove(tag, payload int) (bool, error) {
	l.touch(1) // head register
	if l.head == nil || l.head.tag > tag {
		l.abort()
		return false, nil
	}
	if l.head.tag == tag && l.head.payload == payload {
		l.head = l.head.next
		l.n--
		l.endRemove()
		return true, nil
	}
	prev := l.head
	for prev.next != nil && prev.next.tag <= tag {
		l.touch(1)
		if prev.next.tag == tag && prev.next.payload == payload {
			l.touch(1) // link write
			prev.next = prev.next.next
			l.n--
			l.endRemove()
			return true, nil
		}
		prev = prev.next
	}
	l.abort()
	return false, nil
}

// Rerank implements DynamicQueue.
func (l *SortedList) Rerank(tag, payload, newTag int) (bool, error) {
	found, err := l.Remove(tag, payload)
	if err != nil || !found {
		return found, err
	}
	return true, l.Insert(newTag, payload)
}

func (h *BinaryHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		h.touch(1)
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		h.touch(2)
		i = parent
	}
}

func (h *BinaryHeap) siftDown(i int) {
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < len(h.items) {
			h.touch(1)
			if h.less(h.items[left], h.items[smallest]) {
				smallest = left
			}
		}
		if right < len(h.items) {
			h.touch(1)
			if h.less(h.items[right], h.items[smallest]) {
				smallest = right
			}
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		h.touch(2)
		i = smallest
	}
}

// Remove implements DynamicQueue. The heap is unordered with respect to
// arbitrary lookups, so locating the victim is a full O(N) slot scan —
// exactly why software heaps handle timer cancellation with lazy
// tombstones; here the scan is charged honestly instead. Among duplicate
// (tag, payload) entries the smallest sequence number is the oldest.
func (h *BinaryHeap) Remove(tag, payload int) (bool, error) {
	victim := -1
	for i := range h.items {
		h.touch(1)
		if h.items[i].tag == tag && h.items[i].payload == payload &&
			(victim == -1 || h.items[i].seq < h.items[victim].seq) {
			victim = i
		}
	}
	if victim == -1 {
		h.abort()
		return false, nil
	}
	last := len(h.items) - 1
	h.items[victim] = h.items[last]
	h.items = h.items[:last]
	h.touch(2)
	if victim < len(h.items) {
		// The moved slot may violate either direction.
		h.siftDown(victim)
		h.siftUp(victim)
	}
	h.endRemove()
	return true, nil
}

// Rerank implements DynamicQueue.
func (h *BinaryHeap) Rerank(tag, payload, newTag int) (bool, error) {
	found, err := h.Remove(tag, payload)
	if err != nil || !found {
		return found, err
	}
	return true, h.Insert(newTag, payload)
}

// Remove implements DynamicQueue. Search descends to the tag's node;
// the FIFO keeps duplicates oldest-first, so the first payload match is
// the removal target. When the FIFO empties the node is deleted with the
// standard BST splice (successor contents pulled up for two-child
// nodes).
func (t *BST) Remove(tag, payload int) (bool, error) {
	var parent *bstNode
	cur := t.root
	for cur != nil {
		t.touch(1)
		if tag == cur.tag {
			break
		}
		parent = cur
		if tag < cur.tag {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	if cur == nil {
		t.abort()
		return false, nil
	}
	hit := -1
	for i, p := range cur.fifo {
		if p == payload {
			hit = i
			break
		}
	}
	if hit == -1 {
		t.abort()
		return false, nil
	}
	t.touch(1)
	cur.fifo = append(cur.fifo[:hit], cur.fifo[hit+1:]...)
	if len(cur.fifo) == 0 {
		t.unlink(parent, cur)
	}
	t.n--
	t.endRemove()
	return true, nil
}

// unlink deletes an emptied node from the tree.
func (t *BST) unlink(parent, cur *bstNode) {
	if cur.left != nil && cur.right != nil {
		// Two children: pull up the in-order successor's contents, then
		// splice the successor out (it has no left child).
		sp, s := cur, cur.right
		t.touch(1)
		for s.left != nil {
			sp, s = s, s.left
			t.touch(1)
		}
		cur.tag, cur.fifo = s.tag, s.fifo
		t.touch(1)
		parent, cur = sp, s
	}
	child := cur.left
	if child == nil {
		child = cur.right
	}
	t.touch(1)
	switch {
	case parent == nil:
		t.root = child
	case parent.left == cur:
		parent.left = child
	default:
		parent.right = child
	}
}

// Rerank implements DynamicQueue.
func (t *BST) Rerank(tag, payload, newTag int) (bool, error) {
	found, err := t.Remove(tag, payload)
	if err != nil || !found {
		return found, err
	}
	return true, t.Insert(newTag, payload)
}

// Remove implements DynamicQueue. The per-key FIFO is oldest-first; the
// recursive key delete only runs when the last duplicate departs.
func (v *VEB) Remove(tag, payload int) (bool, error) {
	if tag < 0 || tag >= v.universe {
		return false, nil // out-of-universe tags are never stored
	}
	q := v.fifo[tag]
	hit := -1
	for i, p := range q {
		if p == payload {
			hit = i
			break
		}
	}
	if hit == -1 {
		v.abort()
		return false, nil
	}
	v.touch(1)
	if len(q) == 1 {
		delete(v.fifo, tag)
		v.deleteKey(v.root, tag)
	} else {
		v.fifo[tag] = append(q[:hit], q[hit+1:]...)
	}
	v.n--
	v.endRemove()
	return true, nil
}

// Rerank implements DynamicQueue.
func (v *VEB) Rerank(tag, payload, newTag int) (bool, error) {
	// Validate the destination before committing the remove so a bad
	// newTag cannot drop the entry.
	if newTag < 0 || newTag >= v.universe {
		return false, fmt.Errorf("pqueue: veb rerank tag %d out of range [0,%d)", newTag, v.universe)
	}
	found, err := v.Remove(tag, payload)
	if err != nil || !found {
		return found, err
	}
	return true, v.Insert(newTag, payload)
}

// Remove implements DynamicQueue. Like Insert, the occupancy update is
// one parallel write across the per-level banks — every level's node
// address derives from the tag, so the unmark costs no sequential walk.
func (t *BitTree) Remove(tag, payload int) (bool, error) {
	if tag < 0 || tag >= t.tagRange {
		return false, nil // out-of-range tags are never stored
	}
	q := t.fifo[tag]
	hit := -1
	for i, p := range q {
		if p == payload {
			hit = i
			break
		}
	}
	if hit == -1 {
		t.abort()
		return false, nil
	}
	t.touch(1)
	t.counts[tag]--
	t.n--
	if t.counts[tag] == 0 {
		delete(t.fifo, tag)
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
		t.fifo[tag] = append(q[:hit], q[hit+1:]...)
	}
	t.endRemove()
	return true, nil
}

// Rerank implements DynamicQueue.
func (t *BitTree) Rerank(tag, payload, newTag int) (bool, error) {
	if newTag < 0 || newTag >= t.tagRange {
		return false, fmt.Errorf("pqueue: bit tree rerank tag %d outside [0,%d)", newTag, t.tagRange)
	}
	found, err := t.Remove(tag, payload)
	if err != nil || !found {
		return found, err
	}
	return true, t.Insert(newTag, payload)
}

// Remove implements DynamicQueue, delegating to the circuit's charged
// unlink. Sequential cost: the tree search's node reads locating the
// group, one translation read resolving the newest link, and one list
// window performing the unlink (the predecessor resolution reuses the
// same search pipeline stage).
func (m *MultiBitTree) Remove(tag, payload int) (bool, error) {
	found, err := m.sorter.Remove(tag, payload)
	if err != nil || !found {
		return found, err
	}
	d := uint64(m.sorter.LastSearchDepth()) + 2
	m.recordRemove(d)
	return true, nil
}

// Rerank implements DynamicQueue, delegating to the circuit's native
// rerank (unlink + fresh insert in two windows). Counted as one remove
// plus one insert, both at the reinsert search's depth.
func (m *MultiBitTree) Rerank(tag, payload, newTag int) (bool, error) {
	found, err := m.sorter.Rerank(tag, payload, newTag)
	if err != nil || !found {
		return found, err
	}
	depth := uint64(m.sorter.LastSearchDepth())
	m.recordRemove(depth + 2)
	m.stats.Inserts++
	m.stats.InsertAccesses += depth + 1
	if depth+1 > m.stats.WorstInsert {
		m.stats.WorstInsert = depth + 1
	}
	return true, nil
}

func (m *MultiBitTree) recordRemove(d uint64) {
	m.stats.Removes++
	m.stats.RemoveAccesses += d
	if d > m.stats.WorstRemove {
		m.stats.WorstRemove = d
	}
}

// Remove implements DynamicQueue. The op routes to the tag's owning
// lane; the cost is that lane's unlink (search depth + translation read
// + list window), identical to the single-lane circuit because lanes
// don't stretch the lookup path.
func (q *Sharded) Remove(tag, payload int) (bool, error) {
	lane := q.s.Lane(q.s.LaneFor(tag))
	found, err := q.s.Remove(tag, payload)
	if err != nil || !found {
		return found, err
	}
	d := uint64(lane.LastSearchDepth()) + 2
	q.recordRemove(d)
	return true, nil
}

// Rerank implements DynamicQueue. Same-lane reranks use the lane's
// native unlink+reinsert; cross-lane reranks remove from the source lane
// and insert into the destination lane. Either way the adapter counts
// one remove at the source's depth and one insert at the destination's.
func (q *Sharded) Rerank(tag, payload, newTag int) (bool, error) {
	src := q.s.Lane(q.s.LaneFor(tag))
	dst := q.s.Lane(q.s.LaneFor(newTag))
	found, err := q.s.Rerank(tag, payload, newTag)
	if err != nil || !found {
		return found, err
	}
	q.recordRemove(uint64(src.LastSearchDepth()) + 2)
	di := uint64(dst.LastSearchDepth()) + 1
	q.stats.Inserts++
	q.stats.InsertAccesses += di
	if di > q.stats.WorstInsert {
		q.stats.WorstInsert = di
	}
	return true, nil
}

func (q *Sharded) recordRemove(d uint64) {
	q.stats.Removes++
	q.stats.RemoveAccesses += d
	if d > q.stats.WorstRemove {
		q.stats.WorstRemove = d
	}
}
