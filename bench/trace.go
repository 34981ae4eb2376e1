// The span tracer of the traced pass. Spans are recorded from the
// benchmark's own files, around the calls into each layer's public
// functions; they are kept in memory and written out when the run ends.
//
//wfqlint:ignore-file determinism the tracer stamps spans with host wall-clock time by design
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// (a packet, an op, a line) share Req; Parent is the enclosing span's
// ID, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans in memory. A nil *tracer is the untraced run:
// callers test for nil before taking any timestamp, so tracing costs
// nothing when it is off. Safe for concurrent use (a packet's submit
// and receive sides are different goroutines).
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, req int64, start, end time.Time) int64 {
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
	return id
}

// addTree records a parent span and its children in one step, for
// requests whose boundaries are all known by the time the last one
// closes (child k runs from cuts[k] to cuts[k+1]).
func (t *tracer) addTree(parent string, req int64, children []string, cuts []time.Time) {
	id := t.add(parent, 0, req, cuts[0], cuts[len(cuts)-1])
	for k, name := range children {
		t.add(name, id, req, cuts[k], cuts[k+1])
	}
}

// selfTime is a span name's aggregate over the trace.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

// selfTimes aggregates the trace per span name. A span's self time is
// its duration minus the part of it its child spans cover (children of
// one parent do not overlap in this benchmark, so that part is their
// summed duration).
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		childNs[s.Parent] += s.End - s.Start
	}
	agg := map[string]*selfTime{}
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		d := s.End - s.Start
		a.Count++
		a.TotalNs += d
		a.SelfNs += d - childNs[s.ID]
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		a.MeanNs = float64(a.TotalNs) / float64(a.Count)
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceFile is the on-disk form of one workload's trace.
type traceFile struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	SampleOne int        `json:"sampled_one_in"`
	SelfTimes []selfTime `json:"self_times"`
	Spans     []span     `json:"spans"`
}

// write stores the trace as JSON at path.
func (t *tracer) write(path, workload string, seed int64, sampleOne int) error {
	tf := traceFile{Workload: workload, Seed: seed, SampleOne: sampleOne, SelfTimes: t.selfTimes()}
	t.mu.Lock()
	tf.Spans = t.spans
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}
