package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job share its
// name; Parent is 0 for a job's root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Job    string  `json:"job"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. It is used only by
// traced runs; the untraced run never touches it.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.origin)) / float64(time.Microsecond) }

// start opens a span and returns its id.
func (t *tracer) start(name, job string, parent int) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: now})
	return len(t.spans)
}

// stop closes span id.
func (t *tracer) stop(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a finished span measured elsewhere (for example from the
// timestamps a service reports).
func (t *tracer) record(name, job string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job,
		Start: float64(start.Sub(t.origin)) / float64(time.Microsecond),
		End:   float64(end.Sub(t.origin)) / float64(time.Microsecond)}
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTime sums, per span name, the span durations minus the time
// their child spans cover, in milliseconds, with call counts.
type selfTime struct {
	SelfMS  float64 `json:"self_ms"`
	TotalMS float64 `json:"total_ms"`
	Count   int     `json:"count"`
}

func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= s.Start {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]selfTime{}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // left open by a failed call
		}
		st := out[s.Name]
		d := s.End - s.Start
		st.TotalMS += d / 1000
		st.SelfMS += (d - child[s.ID]) / 1000
		st.Count++
		out[s.Name] = st
	}
	return out
}

func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
