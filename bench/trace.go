package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// milliseconds since the tracer was created; Parent indexes the span list
// (-1 at the root); Run ties together the spans of one repetition or one
// HTTP request.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Run    int     `json:"run"`
}

// tracer keeps spans in memory and writes them out when the run ends. The
// spans are recorded from the benchmark's own files, around calls into each
// module's public functions; a nil tracer (every untraced run) records
// nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	stack []int // open spans of the driving goroutine, innermost last
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Millisecond)
}

// begin opens a span under the innermost open one and returns the function
// that closes it. Only the goroutine driving the phases may call it.
func (t *tracer) begin(name string, run int) (end func()) {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.ms(time.Now()), Parent: parent, Run: run})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[id].End = t.ms(time.Now())
		t.stack = t.stack[:len(t.stack)-1]
		t.mu.Unlock()
	}
}

// add records a finished span under the innermost open one; safe from any
// goroutine (the HTTP senders record one span per request).
func (t *tracer) add(name string, run int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.ms(start), End: t.ms(end), Parent: parent, Run: run})
	t.mu.Unlock()
}

// spanTotal aggregates the spans of one name: Self is Total minus the part
// of each span its direct children cover.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) totals() []spanTotal {
	if t == nil {
		return nil
	}
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanTotal{}
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalMS += s.End - s.Start
		// Children of a phase span may overlap (concurrent requests), so
		// self time is floored at 0.
		st.SelfMS += max(s.End-s.Start-child[i], 0)
	}
	out := make([]spanTotal, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// flush writes the span list.
func (t *tracer) flush(path string) error {
	if t == nil {
		return nil
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
