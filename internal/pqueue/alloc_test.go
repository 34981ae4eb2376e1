package pqueue

import (
	"testing"

	"wfqsort/internal/raceflag"
)

// TestHotPathZeroAlloc extends the core and sharded zero-allocation
// pins to the MinTagQueue adapters: the per-operation OpStats accounting
// reads the circuit's depth gauges through O(1) accessors, so Insert,
// ExtractMin, Remove and Rerank allocate nothing in steady state.
// Skipped under -race like the tests it extends.
func TestHotPathZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tree, err := NewMultiBitTree(1024)
	if err != nil {
		t.Fatalf("NewMultiBitTree: %v", err)
	}
	sh, err := NewSharded(4, 1024)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	for _, q := range []DynamicQueue{tree, sh} {
		t.Run(q.Name(), func(t *testing.T) {
			const tagRange = 4096
			tag := func(i int) int { return (i*37 + 11) % tagRange }
			// Warm every lane past its initialization counter so link
			// allocation runs the steady-state free-list path.
			for i := 0; i < 1024; i++ {
				if err := q.Insert(tag(i), i); err != nil {
					t.Fatalf("warmup insert: %v", err)
				}
			}
			for i := 0; i < 512; i++ {
				if _, err := q.ExtractMin(); err != nil {
					t.Fatalf("warmup extract: %v", err)
				}
			}
			// Each measured step leaves the occupancy where it found it.
			i := 5000
			steps := []struct {
				op   string
				step func()
			}{
				{"Insert+ExtractMin", func() {
					if err := q.Insert(tag(i), i); err != nil {
						t.Fatalf("Insert: %v", err)
					}
					if _, err := q.ExtractMin(); err != nil {
						t.Fatalf("ExtractMin: %v", err)
					}
				}},
				{"Insert+Remove", func() {
					if err := q.Insert(tag(i), i); err != nil {
						t.Fatalf("Insert: %v", err)
					}
					if ok, err := q.Remove(tag(i), i); err != nil || !ok {
						t.Fatalf("Remove: %v %v", ok, err)
					}
				}},
				{"Insert+Rerank+Remove", func() {
					// i+1 moves the entry to another lane of the sharded
					// queue, i+4 keeps it in its lane.
					for _, to := range []int{tag(i + 1), tag(i + 4)} {
						if err := q.Insert(tag(i), i); err != nil {
							t.Fatalf("Insert: %v", err)
						}
						if ok, err := q.Rerank(tag(i), i, to); err != nil || !ok {
							t.Fatalf("Rerank: %v %v", ok, err)
						}
						if ok, err := q.Remove(to, i); err != nil || !ok {
							t.Fatalf("Remove: %v %v", ok, err)
						}
					}
				}},
			}
			for _, s := range steps {
				if avg := testing.AllocsPerRun(200, func() { s.step(); i++ }); avg != 0 {
					t.Errorf("%s allocates %.2f objects per step, want 0", s.op, avg)
				}
			}
		})
	}
}
