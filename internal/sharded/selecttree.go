package sharded

// headEntry is one lane's cached minimum as seen by the select tree.
type headEntry struct {
	tag   int
	lane  int
	valid bool // false when the lane is empty
}

// selectTree is the min-combining select tree over the per-lane heads: a
// fixed tournament of log₂(N) comparator levels, the sharded analogue of
// the paper's select & look-ahead matcher. Updating one lane's head
// re-plays only that leaf's root path, and reading the global minimum is
// one register read of the root — so PeekMin/ExtractMin stay fixed-time
// in the lane count, not the occupancy.
type selectTree struct {
	size     int         // leaves, padded to a power of two
	levels   int         // comparator levels between a leaf and the root
	nodes    []headEntry // 1-based tournament; leaves occupy [size, 2*size)
	compares uint64      // comparator evaluations (the fixed-time claim, measurable)
}

func newSelectTree(lanes int) *selectTree {
	size, levels := 1, 0
	for size < lanes {
		size <<= 1
		levels++
	}
	t := &selectTree{size: size, levels: levels, nodes: make([]headEntry, 2*size)}
	for i := range t.nodes {
		t.nodes[i] = headEntry{lane: -1}
	}
	for l := 0; l < lanes; l++ {
		t.nodes[size+l].lane = l
	}
	return t
}

// better picks the winning head: valid beats invalid, then smaller tag,
// then lower lane index. Cross-lane tag ties cannot occur (each tag
// value maps to exactly one lane), but the comparator is still total so
// the tree is deterministic under any input.
func better(a, b headEntry) headEntry {
	switch {
	case !b.valid:
		return a
	case !a.valid:
		return b
	case a.tag != b.tag:
		if a.tag < b.tag {
			return a
		}
		return b
	case a.lane <= b.lane:
		return a
	default:
		return b
	}
}

// update installs lane's new head and re-plays its path to the root:
// one comparator per tree level.
func (t *selectTree) update(lane, tag int, valid bool) {
	i := t.size + lane
	t.nodes[i].tag, t.nodes[i].valid = tag, valid
	for i > 1 {
		i >>= 1
		t.compares++
		t.nodes[i] = better(t.nodes[2*i], t.nodes[2*i+1])
	}
}

// min returns the current winner (valid=false when every lane is empty).
func (t *selectTree) min() headEntry { return t.nodes[1] }
