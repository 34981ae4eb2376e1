package scheduler

// liveTags is the multiset of finishing tags still queued in the
// sorter: a binary min-heap indexed by packet-buffer slot. Every queued
// packet owns exactly one buffer slot from admission to departure, so
// the slot is the handle a departure removes by, and the index is sized
// by the buffer rather than by the trace. The minimum is what the tag
// circuit's undercut clamp and the quantizer's window bookkeeping read
// on every arrival; add and remove cost O(log backlog).
type liveTags struct {
	heap []liveTag
	pos  []int32 // pos[slot] is the slot's index in heap, -1 when absent
}

type liveTag struct {
	f    float64
	slot int32
}

func newLiveTags(slots int) liveTags {
	l := liveTags{heap: make([]liveTag, 0, slots), pos: make([]int32, slots)}
	for i := range l.pos {
		l.pos[i] = -1
	}
	return l
}

// reset empties the set (a new run, or a flush recovery).
func (l *liveTags) reset() {
	for _, e := range l.heap {
		l.pos[e.slot] = -1
	}
	l.heap = l.heap[:0]
}

// min returns the smallest live tag, or 0 when nothing is queued.
func (l *liveTags) min() float64 {
	if len(l.heap) == 0 {
		return 0
	}
	return l.heap[0].f
}

// add records the tag of the packet just stored in slot.
func (l *liveTags) add(slot int, f float64) {
	l.heap = append(l.heap, liveTag{f: f, slot: int32(slot)})
	l.up(len(l.heap) - 1)
}

// remove drops slot's tag; a slot with no recorded tag is left alone.
func (l *liveTags) remove(slot int) {
	i := int(l.pos[slot])
	if i < 0 {
		return
	}
	l.pos[slot] = -1
	last := len(l.heap) - 1
	moved := l.heap[last]
	l.heap = l.heap[:last]
	if i == last {
		return
	}
	l.heap[i] = moved
	l.pos[moved.slot] = int32(i)
	l.down(l.up(i))
}

// up sifts entry i toward the root and returns where it settled.
func (l *liveTags) up(i int) int {
	e := l.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if l.heap[parent].f <= e.f {
			break
		}
		l.heap[i] = l.heap[parent]
		l.pos[l.heap[i].slot] = int32(i)
		i = parent
	}
	l.heap[i] = e
	l.pos[e.slot] = int32(i)
	return i
}

// down sifts entry i toward the leaves.
func (l *liveTags) down(i int) {
	e := l.heap[i]
	n := len(l.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && l.heap[r].f < l.heap[child].f {
			child = r
		}
		if e.f <= l.heap[child].f {
			break
		}
		l.heap[i] = l.heap[child]
		l.pos[l.heap[i].slot] = int32(i)
		i = child
	}
	l.heap[i] = e
	l.pos[e.slot] = int32(i)
}
