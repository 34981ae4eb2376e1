// Verification and debug ports of the sorted tag list. Everything in
// this file reads the link memory through the uncounted Peek port: no
// functional accesses are recorded, no cycles are charged, and the
// fault observer on the functional Port is bypassed — these
// are the silicon's dedicated observation ports, not datapath traffic.
// Functional-cost recovery (Rescan, RebuildFreeList) stays in
// taglist.go because it deliberately pays hardware cost.
package taglist

import (
	"fmt"

	"wfqsort/internal/hwsim"
)

// Walk visits the sorted list from head to tail without counting memory
// accesses (verification port). It returns the entries in service order.
// A chain that revisits a link, ends early, or fails to cover all live
// links is corruption and is reported wrapping hwsim.ErrCorrupt.
func (l *List) Walk() ([]Entry, error) {
	if !l.headValid {
		return nil, nil
	}
	out := make([]Entry, 0, l.count)
	seen := make(map[int]bool, l.count)
	addr := l.headAddr
	for i := 0; i < l.count; i++ {
		if seen[addr] {
			return out, fmt.Errorf("taglist: %w: walk revisits link %d (chain cycle)", hwsim.ErrCorrupt, addr)
		}
		seen[addr] = true
		w, err := l.reg.Peek(addr)
		if err != nil {
			return nil, err
		}
		tag, next, payload := l.unpack(w)
		out = append(out, Entry{Tag: tag, Payload: payload, Addr: addr})
		if next == addr {
			break
		}
		addr = next
	}
	if len(out) != l.count {
		return out, fmt.Errorf("taglist: %w: walk visited %d links, count is %d (broken chain)", hwsim.ErrCorrupt, len(out), l.count)
	}
	return out, nil
}

// FreeLinks returns the number of links on the empty list plus the
// never-used region (verification port).
func (l *List) FreeLinks() (int, error) {
	free, err := l.FreeAddrs()
	if err != nil {
		return 0, err
	}
	return len(free) + l.cfg.Capacity - l.initCounter, nil
}

// FreeAddrs returns the addresses chained on the empty list, head
// first, read through the debug port (audit use). The never-used region
// [InitCounter, Capacity) is not included. A cycle in the empty list is
// corruption and is reported wrapping hwsim.ErrCorrupt.
func (l *List) FreeAddrs() ([]int, error) {
	if !l.emptyValid {
		return nil, nil
	}
	var out []int
	addr := l.emptyHead
	for i := 0; i < l.cfg.Capacity; i++ {
		out = append(out, addr)
		w, err := l.reg.Peek(addr)
		if err != nil {
			return nil, err
		}
		_, next, _ := l.unpack(w)
		if next == addr {
			return out, nil
		}
		addr = next
	}
	return nil, fmt.Errorf("taglist: %w: empty list cycle detected", hwsim.ErrCorrupt)
}
