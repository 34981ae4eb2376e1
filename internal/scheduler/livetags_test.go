package scheduler

import (
	"math/rand"
	"testing"
)

// TestLiveTagsMatchesRescan drives the slot-indexed heap and the map
// rescan it replaced through the same random adds, removes and resets,
// with many duplicate tags, and compares the minimum after every step.
func TestLiveTagsMatchesRescan(t *testing.T) {
	const slots = 64
	rng := rand.New(rand.NewSource(3))
	l := newLiveTags(slots)
	ref := map[int]float64{}
	rescan := func() float64 {
		min, first := 0.0, true
		for _, f := range ref {
			if first || f < min {
				min, first = f, false
			}
		}
		return min
	}
	for step := 0; step < 20_000; step++ {
		slot := rng.Intn(slots)
		switch _, live := ref[slot]; {
		case rng.Intn(2000) == 0:
			l.reset()
			ref = map[int]float64{}
		case live || rng.Intn(8) == 0: // sometimes remove an absent slot
			l.remove(slot)
			delete(ref, slot)
		default:
			f := float64(rng.Intn(40)) / 8
			l.add(slot, f)
			ref[slot] = f
		}
		if got, want := l.min(), rescan(); got != want {
			t.Fatalf("step %d: min %v, rescan says %v (%d live)", step, got, want, len(ref))
		}
		if len(l.heap) != len(ref) {
			t.Fatalf("step %d: heap holds %d, want %d", step, len(l.heap), len(ref))
		}
	}
}
