package pqueue

import (
	"fmt"

	"wfqsort/internal/traffic"
)

// Compile-time interface checks.
var (
	_ MinTagQueue = (*SortedList)(nil)
	_ MinTagQueue = (*BinaryHeap)(nil)
	_ MinTagQueue = (*BST)(nil)
	_ MinTagQueue = (*VEB)(nil)
	_ MinTagQueue = (*CalendarQueue)(nil)
	_ MinTagQueue = (*TCQ)(nil)
	_ MinTagQueue = (*Binning)(nil)
	_ MinTagQueue = (*LFVC)(nil)
	_ MinTagQueue = (*BinaryCAM)(nil)
	_ MinTagQueue = (*TCAM)(nil)
	_ MinTagQueue = (*BitTree)(nil)
	_ MinTagQueue = (*MultiBitTree)(nil)
	_ MinTagQueue = (*Sharded)(nil)
)

// StandardParams describes the Table I comparison geometry: a 12-bit tag
// universe (W=12, R=4096), 4-bit literals (k=4), 16 bins matching the
// paper's binning/CBFQ configuration, and a 256-day calendar.
type StandardParams struct {
	TagBits    int
	Capacity   int
	Bins       int
	Days       int
	TCQRows    int
	ShardLanes int
}

// DefaultParams returns the silicon-matched comparison geometry.
func DefaultParams() StandardParams {
	return StandardParams{
		TagBits:    12,
		Capacity:   4096,
		Bins:       16,
		Days:       256,
		TCQRows:    64,
		ShardLanes: 4,
	}
}

// NewAll constructs one instance of every Table I method under the given
// geometry, in the paper's presentation order (software rows first),
// plus this repo's sharded multi-lane extension as a final row.
func NewAll(p StandardParams) ([]MinTagQueue, error) {
	tagRange := 1 << uint(p.TagBits)
	veb, err := NewVEB(p.TagBits)
	if err != nil {
		return nil, err
	}
	cal, err := NewCalendarQueue(p.Days, tagRange/p.Days)
	if err != nil {
		return nil, err
	}
	tcq, err := NewTCQ(p.TCQRows, tagRange/p.TCQRows)
	if err != nil {
		return nil, err
	}
	bin, err := NewBinning(p.Bins, tagRange)
	if err != nil {
		return nil, err
	}
	lfvc, err := NewLFVC(tagRange/p.TCQRows, tagRange)
	if err != nil {
		return nil, err
	}
	cam, err := NewBinaryCAM(tagRange)
	if err != nil {
		return nil, err
	}
	tcam, err := NewTCAM(p.TagBits)
	if err != nil {
		return nil, err
	}
	bt, err := NewBitTree(p.TagBits)
	if err != nil {
		return nil, err
	}
	mbt, err := NewMultiBitTree(p.Capacity)
	if err != nil {
		return nil, err
	}
	shd, err := NewSharded(p.ShardLanes, p.Capacity)
	if err != nil {
		return nil, err
	}
	return []MinTagQueue{
		NewSortedList(),
		NewBST(),
		NewBinaryHeap(),
		veb,
		bin,
		cal,
		tcq,
		lfvc,
		cam,
		tcam,
		bt,
		mbt,
		shd,
	}, nil
}

// WorkloadResult summarizes one method's behaviour under a workload.
type WorkloadResult struct {
	Name         string
	Model        Model
	Exact        bool
	Stats        OpStats
	Inversions   int64 // out-of-order served pairs (0 for exact methods)
	ServedCount  int
	OrderCorrect bool
}

// RunWorkload drives a queue with a WFQ-like monotone workload in three
// phases: fill a standing backlog, run steady-state insert+extract
// pairs, then drain. Tags are drawn from a moving window above the last
// served value following a Fig. 6 profile. It returns access statistics
// and service-order quality.
//
// The workload respects the calendar-family precondition (tags within
// one year, non-decreasing service floor) so every method operates in
// its intended regime; backlog is the quantity that exposes O(N) and
// O(log N) scaling in the Table I comparison.
func RunWorkload(q MinTagQueue, backlog, steady, window, tagRange int, profile traffic.TagProfile, seed int64) (*WorkloadResult, error) {
	if backlog <= 0 || steady < 0 || window <= 0 || tagRange <= window {
		return nil, fmt.Errorf("pqueue: workload backlog %d steady %d window %d range %d invalid",
			backlog, steady, window, tagRange)
	}
	gen, err := traffic.NewTagGen(profile, seed)
	if err != nil {
		return nil, err
	}
	q.ResetStats()
	served := make([]float64, 0, backlog+steady)
	floor := 0
	payload := 0
	insert := func() error {
		hi := floor + window
		if hi > tagRange-1 {
			hi = tagRange - 1
		}
		lo := floor
		if lo > hi {
			lo = hi
		}
		tag := gen.Sample(lo, hi)
		payload++
		if err := q.Insert(tag, payload); err != nil {
			return fmt.Errorf("pqueue: %s insert %d: %w", q.Name(), tag, err)
		}
		return nil
	}
	extract := func() error {
		e, err := q.ExtractMin()
		if err != nil {
			return fmt.Errorf("pqueue: %s extract: %w", q.Name(), err)
		}
		served = append(served, float64(e.Tag))
		if e.Tag > floor {
			floor = e.Tag
		}
		return nil
	}
	for i := 0; i < backlog; i++ {
		if err := insert(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < steady; i++ {
		if err := insert(); err != nil {
			return nil, err
		}
		if err := extract(); err != nil {
			return nil, err
		}
	}
	for q.Len() > 0 {
		if err := extract(); err != nil {
			return nil, err
		}
	}
	inv := countInversions(served)
	return &WorkloadResult{
		Name:         q.Name(),
		Model:        q.Model(),
		Exact:        q.Exact(),
		Stats:        q.Stats(),
		Inversions:   inv,
		ServedCount:  len(served),
		OrderCorrect: inv == 0,
	}, nil
}

func countInversions(keys []float64) int64 {
	// Merge count, a copy of metrics.TotalInversions: metrics imports
	// schedulers, which imports this package, so calling it from here
	// would be an import cycle.
	buf := make([]float64, len(keys))
	work := make([]float64, len(keys))
	copy(work, keys)
	return merge(work, buf)
}

func merge(a, buf []float64) int64 {
	n := len(a)
	if n < 2 {
		return 0
	}
	mid := n / 2
	count := merge(a[:mid], buf[:mid]) + merge(a[mid:], buf[mid:])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if a[i] <= a[j] {
			buf[k] = a[i]
			i++
		} else {
			count += int64(mid - i)
			buf[k] = a[j]
			j++
		}
		k++
	}
	copy(buf[k:], a[i:mid])
	copy(buf[k+mid-i:], a[j:n])
	copy(a, buf[:n])
	return count
}
