package scheduler

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wfqsort/internal/hwsim"
	"wfqsort/internal/packet"
	"wfqsort/internal/rank"
)

// resultDigest hashes everything of a Result that the live-tag
// bookkeeping can influence: the departure order with start and finish
// times, the quantized tags (undercut clamping and window bookkeeping
// feed them), and the reclaim, window, inversion, drop and loss counts,
// plus the final fabric clock. Floats are written as hex so the digest
// pins every bit.
func resultDigest(res *Result, clock *hwsim.Clock) string {
	h := sha256.New()
	for _, d := range res.Departures {
		fmt.Fprintf(h, "%d %x %x\n", d.Packet.ID, d.Start, d.Finish)
	}
	fmt.Fprintln(h, res.QuantizedTags)
	fmt.Fprintln(h, res.SectionsReclaimed, res.Windows, res.Inversions, res.Dropped, res.Lost, clock.Now())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// burstyTrace is a seeded three-flow trace: two light flows send large
// packets in bursts that build a backlog of far-future tags, while a
// heavy flow sends small packets sparsely, so its arrivals regularly
// carry an exact finishing tag below everything queued (the undercut the
// tag circuit clamps). The run is long enough to walk the tag window
// round several times, reclaiming sections as it goes. gap is the mean
// silence between bursts.
func burstyTrace(n int, seed int64, gap float64) []packet.Packet {
	rng := rand.New(rand.NewSource(seed))
	arr := make([]packet.Packet, 0, n)
	now := 0.0
	for len(arr) < n {
		burst := 20 + rng.Intn(60)
		for i := 0; i < burst && len(arr) < n; i++ {
			now += rng.ExpFloat64() * 2e-6
			arr = append(arr, packet.Packet{ID: len(arr), Flow: 1 + rng.Intn(2), Size: 900 + rng.Intn(600), Arrival: now})
			if rng.Intn(4) == 0 {
				now += rng.ExpFloat64() * 1e-6
				arr = append(arr, packet.Packet{ID: len(arr), Flow: 0, Size: 64 + rng.Intn(64), Arrival: now})
			}
		}
		now += rng.ExpFloat64() * gap
	}
	return arr[:n]
}

// TestRunGolden pins Run's complete outcome on three paths through the
// live-tag bookkeeping and on the two tag circuits other than exact WFQ.
// The first three digests were recorded at the commit before the
// per-departure rescan of the live-tag map was replaced by the
// slot-indexed heap, the last two at the commit before the scheduler's
// private tag-algorithm switch was replaced by Config.Program (as its
// SCFQ and fixed-point settings on the same configuration); each
// replacement must reproduce them bit for bit.
func TestRunGolden(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) (*Scheduler, []packet.Packet)
		check func(t *testing.T, res *Result)
		want  string
	}{
		{
			name: "bursty-clamp-reclaim",
			build: func(t *testing.T) (*Scheduler, []packet.Packet) {
				s, err := New(Config{
					Weights:        []float64{0.8, 0.1, 0.1},
					CapacityBps:    1e9,
					SorterCapacity: 256,
					Clock:          &hwsim.Clock{},
				})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return s, burstyTrace(6000, 42, 1e-3)
			},
			check: func(t *testing.T, res *Result) {
				if res.SectionsReclaimed == 0 {
					t.Error("trace reclaimed no section")
				}
				if res.Inversions == 0 {
					t.Error("no served pair out of exact-tag order: undercut clamping not exercised")
				}
			},
			want: "6d0ea8ff39067e4083c70271ad464d243161a20ccb75d0276e2dc6f33c8fcc9c",
		},
		{
			name: "tail-drop-overload",
			build: func(t *testing.T) (*Scheduler, []packet.Packet) {
				s, err := New(Config{
					Weights:        []float64{0.8, 0.1, 0.1},
					CapacityBps:    2e8,
					SorterCapacity: 64,
					OnFull:         FullTailDrop,
					Clock:          &hwsim.Clock{},
				})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return s, burstyTrace(4000, 7, 4e-4)
			},
			check: func(t *testing.T, res *Result) {
				if res.Dropped == 0 {
					t.Error("overload dropped nothing")
				}
				if res.PeakBuffer != 64 {
					t.Errorf("peak buffer %d, want the full 64 slots", res.PeakBuffer)
				}
			},
			want: "bb3bcd9c449a3f87df6b793fe657db41f4078ac7a50ed27106b062f934678815",
		},
		{
			name: "corrupt-flush-recovery",
			build: func(t *testing.T) (*Scheduler, []packet.Packet) {
				s, _ := buildFaulty(t, faultCampaign(11), CorruptFlush, 16)
				arr := burstyTrace(1500, 11, 1e-3)
				for i := range arr {
					arr[i].Flow %= 2 // buildFaulty provisions two sessions
				}
				return s, arr
			},
			check: func(t *testing.T, res *Result) {
				if res.Lost < 10 || len(res.Recoveries) == 0 {
					t.Errorf("lost %d in %d recoveries: no flush of a standing backlog", res.Lost, len(res.Recoveries))
				}
				if n := len(res.Departures); n == 0 || res.Departures[n-1].Packet.ID < 1400 {
					t.Error("service did not resume after the flush")
				}
			},
			want: "42645cbb168e11008d0a82f33e91e8be795bb253c64b11a5dbb215af2f079562",
		},
		{
			name: "scfq-program",
			build: func(t *testing.T) (*Scheduler, []packet.Packet) {
				weights := []float64{0.8, 0.1, 0.1}
				prog, err := rank.NewSCFQ(weights, 1e9)
				if err != nil {
					t.Fatalf("NewSCFQ: %v", err)
				}
				s, err := New(Config{
					Weights:        weights,
					CapacityBps:    1e9,
					SorterCapacity: 256,
					Clock:          &hwsim.Clock{},
					Program:        prog,
				})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return s, burstyTrace(6000, 42, 1e-3)
			},
			want: "7d8e7dd5973ffc292340c012f1a344ff52da608a3365b865442e267f3b0a34f9",
		},
		{
			name: "wfq-fixed-program",
			build: func(t *testing.T) (*Scheduler, []packet.Packet) {
				s := newFixed(t, Config{
					Weights:        []float64{0.8, 0.1, 0.1},
					CapacityBps:    1e9,
					SorterCapacity: 256,
					Clock:          &hwsim.Clock{},
				})
				return s, burstyTrace(6000, 42, 1e-3)
			},
			want: "4581983711c71eb1311ab02d912bb6b9ff44feebe4ede9ea40ae3467b1dc3359",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, arr := tc.build(t)
			clock := s.cfg.Clock // the fabric's clock domain in every case
			res, err := s.Run(arr)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if tc.check != nil {
				tc.check(t, res)
			}
			if got := resultDigest(res, clock); got != tc.want {
				t.Errorf("digest %s\nwant   %s\n(%d departures, %d reclaimed, %d windows, %d inversions, %d dropped, %d lost, clock %d)",
					got, tc.want, len(res.Departures), res.SectionsReclaimed, res.Windows, res.Inversions, res.Dropped, res.Lost, clock.Now())
			}
		})
	}
}

// TestRunRejectsBadPacketIDs: packet IDs index the per-packet tag
// tables and arrive from trace files, so Run refuses an ID outside
// [0, len(arrivals)) or used twice, naming the packet.
func TestRunRejectsBadPacketIDs(t *testing.T) {
	base := func() []packet.Packet {
		arr := make([]packet.Packet, 10)
		for i := range arr {
			arr[i] = packet.Packet{ID: i, Flow: i % 2, Size: 100, Arrival: float64(i) * 1e-5}
		}
		return arr
	}
	cases := []struct {
		name string
		at   int
		id   int
		want string
	}{
		{"out-of-range", 4, 99, "packet id 99"},
		{"one-past-end", 9, 10, "packet id 10"},
		{"negative", 0, -1, "packet id -1"},
		{"duplicate", 7, 3, "packet id 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Weights: []float64{1, 1}, CapacityBps: 1e9, SorterCapacity: 64})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			arr := base()
			arr[tc.at].ID = tc.id
			res, err := s.Run(arr)
			if err == nil {
				t.Fatalf("Run accepted the trace (%d departures)", len(res.Departures))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
			if s.Sorter().Len() != 0 {
				t.Fatal("trace was rejected after packets were admitted")
			}
		})
	}
	s, err := New(Config{Weights: []float64{1, 1}, CapacityBps: 1e9, SorterCapacity: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(base()); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

// standingBacklogTrace puts backlog packets on the link at time zero and
// then one arrival per service time, so the queue holds about backlog
// packets for the rest of the run.
func standingBacklogTrace(backlog, steady int) []packet.Packet {
	const size, capBps = 500, 1e9
	service := float64(size*8) / capBps
	arr := make([]packet.Packet, backlog+steady)
	for i := range arr {
		at := 0.0
		if i >= backlog {
			at = float64(i-backlog+1) * service
		}
		arr[i] = packet.Packet{ID: i, Flow: i % 4, Size: size, Arrival: at}
	}
	return arr
}

// BenchmarkRunBacklog reports Run's host cost per packet at a small and
// a large standing backlog. The two must stay within a small factor of
// each other: the circuit's work per packet does not depend on the
// backlog, and neither may the bookkeeping around it.
func BenchmarkRunBacklog(b *testing.B) {
	for _, backlog := range []int{64, 3000} {
		b.Run(fmt.Sprintf("backlog-%d", backlog), func(b *testing.B) {
			arr := standingBacklogTrace(backlog, 20_000)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := New(Config{Weights: []float64{1, 1, 1, 1}, CapacityBps: 1e9})
				if err != nil {
					b.Fatalf("New: %v", err)
				}
				b.StartTimer()
				res, err := s.Run(arr)
				if err != nil {
					b.Fatalf("Run: %v", err)
				}
				if len(res.Departures) != len(arr) || res.PeakBuffer < backlog {
					b.Fatalf("%d of %d departed, peak buffer %d", len(res.Departures), len(arr), res.PeakBuffer)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(arr)), "ns/packet")
		})
	}
}
