// Verification and debug ports of the translation table. Everything in
// this file reads the entry memory through the uncounted Peek port: no
// functional accesses are recorded, no cycles are charged, and the
// fault observer on the functional Port is bypassed — these
// are the silicon's dedicated observation ports, not datapath traffic.
package transtable

import (
	"fmt"
	"sort"

	"wfqsort/internal/hwsim"
)

// Live returns every valid entry as a tag→address map, read through
// the debug port (audit use: no accesses counted).
func (t *Table) Live() (map[int]int, error) {
	out := map[int]int{}
	for tag := 0; tag < t.Entries(); tag++ {
		w, err := t.reg.Peek(tag)
		if err != nil {
			return nil, err
		}
		if w&(1<<uint(t.addrBits)) != 0 {
			out[tag] = int(w & ((1 << uint(t.addrBits)) - 1))
		}
	}
	return out, nil
}

// Verify checks the table against the expected live tag→newest-address
// map (derived by the caller from the authoritative tag store). Any
// deviation — a live tag without an entry, an entry pointing at the
// wrong link, or a valid entry for a tag with no live links (dangling)
// — is corruption and is reported wrapping hwsim.ErrCorrupt.
func (t *Table) Verify(expect map[int]int) error {
	live, err := t.Live()
	if err != nil {
		return err
	}
	// Check tags in ascending order so the first corruption reported is
	// the same on every run regardless of map iteration order.
	for _, tag := range sortedTags(expect) {
		addr := expect[tag]
		got, ok := live[tag]
		if !ok {
			return fmt.Errorf("transtable: %w: live tag %d has no entry", hwsim.ErrCorrupt, tag)
		}
		if got != addr {
			return fmt.Errorf("transtable: %w: tag %d entry points at %d, newest link is %d", hwsim.ErrCorrupt, tag, got, addr)
		}
	}
	for _, tag := range sortedTags(live) {
		if _, ok := expect[tag]; !ok {
			return fmt.Errorf("transtable: %w: dangling entry for dead tag %d", hwsim.ErrCorrupt, tag)
		}
	}
	return nil
}

// sortedTags returns the keys of m in ascending order.
func sortedTags(m map[int]int) []int {
	tags := make([]int, 0, len(m))
	for tag := range m {
		tags = append(tags, tag)
	}
	sort.Ints(tags)
	return tags
}
