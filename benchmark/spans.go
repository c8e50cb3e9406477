package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// recorder keeps the traced pass's spans in memory and writes them out
// once, at exit, as Chrome trace-event JSON. The spans are the harness's
// own, recorded around its calls into each layer (<workload>/rep contains
// <workload>/run — the one call into apps or serve — and
// <workload>/verify; kernel/<layer>.<op> wraps each kernel); spans
// recorded inside the program can later join the same file. A nil
// recorder records nothing, which is how the untraced pass runs.
type recorder struct {
	t0    time.Time
	spans []spanRec
	open  []int // stack of spans begun and not yet ended
}

type spanRec struct {
	Name       string
	Start, End time.Duration // since t0
	Parent     int           // index of the span that caused this one, -1 for a root
}

// openSpan is the handle begin returns; end closes the span.
type openSpan struct {
	r  *recorder
	id int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string) openSpan {
	if r == nil {
		return openSpan{}
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, spanRec{Name: name, Start: time.Since(r.t0), Parent: parent})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return openSpan{r, id}
}

func (s openSpan) end() {
	if s.r == nil {
		return
	}
	s.r.spans[s.id].End = time.Since(s.r.t0)
	s.r.open = s.r.open[:len(s.r.open)-1]
}

// write stores the spans as Chrome trace-event JSON ("X" complete
// events, microseconds), loadable in chrome://tracing or Perfetto.
func (r *recorder) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	// A span's self time is its duration minus the part its child spans
	// cover.
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{
				"id": i, "parent": s.Parent,
				"self_us": float64(self[i]) / 1e3,
			},
		}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
