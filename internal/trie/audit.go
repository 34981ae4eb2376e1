// Verification and debug ports of the search tree. Everything in this
// file observes the physical node arrays through the per-level Peek
// ports: no functional accesses are counted, no cycles are charged, and
// the fault observer on the functional Port is bypassed — the scrub
// engine reads the raw memory, exactly like the silicon's
// dedicated verification port.
package trie

import (
	"fmt"
	"math/bits"
	"strings"
)

// Dump renders the tree's node occupancy level by level (verification
// and debugging port): each line shows a level's non-empty nodes as
// index:word pairs.
func (t *Trie) Dump() (string, error) {
	var b strings.Builder
	for level := 0; level < t.cfg.Levels; level++ {
		fmt.Fprintf(&b, "L%d (%d-bit nodes):", level, t.widths[level])
		empty := true
		for idx := 0; idx < t.depths[level]; idx++ {
			word, err := t.regions[level].Peek(idx)
			if err != nil {
				return "", err
			}
			if word != 0 {
				fmt.Fprintf(&b, " %d:%0*b", idx, t.widths[level], word)
				empty = false
			}
		}
		if empty {
			b.WriteString(" (empty)")
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// Markers returns every marked tag by scanning the leaf level through
// the debug port (audit use: no accesses counted, no reliance on the
// possibly-corrupt upper levels).
func (t *Trie) Markers() ([]int, error) {
	leaf := t.cfg.Levels - 1
	var out []int
	for idx := 0; idx < t.depths[leaf]; idx++ {
		word, err := t.regions[leaf].Peek(idx)
		if err != nil {
			return nil, err
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			out = append(out, idx<<uint(t.bits[leaf])|b)
		}
	}
	return out, nil
}

// AuditStructure scans the whole tree through the debug port and
// returns a description of every internal inconsistency: a parent bit
// set over an empty child node (which would derail a max-path or
// backup descent into ErrCorrupt) or a non-empty child under a clear
// parent bit (markers unreachable by any search). A healthy tree
// returns an empty slice.
func (t *Trie) AuditStructure() ([]string, error) {
	var bad []string
	for level := 0; level < t.cfg.Levels-1; level++ {
		for idx := 0; idx < t.depths[level]; idx++ {
			word, err := t.regions[level].Peek(idx)
			if err != nil {
				return nil, err
			}
			for b := 0; b < t.widths[level]; b++ {
				child, err := t.regions[level+1].Peek(idx*t.widths[level] + b)
				if err != nil {
					return nil, err
				}
				set := word&(1<<uint(b)) != 0
				switch {
				case set && child == 0:
					bad = append(bad, fmt.Sprintf("level %d node %d bit %d set over empty child", level, idx, b))
				case !set && child != 0:
					bad = append(bad, fmt.Sprintf("level %d node %d bit %d clear over non-empty child", level, idx, b))
				}
			}
		}
	}
	return bad, nil
}
