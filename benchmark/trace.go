package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share an id; parent is the index of the span that caused this one,
// -1 for a root.
type span struct {
	name       string
	start, end time.Duration // offsets from the recorder's epoch
	parent     int
	id         uint64
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced pass runs.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index, so a callee on another
// goroutine can name it as parent before it ends.
func (r *recorder) begin(name string, parent int, id uint64) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, end: now, parent: parent, id: id})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// add records a finished span.
func (r *recorder) add(name string, start, end time.Time, parent int, id uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: start.Sub(r.epoch), end: end.Sub(r.epoch), parent: parent, id: id})
}

// timed runs fn inside a root span.
func (r *recorder) timed(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.add(name, t0, t1, -1, 0)
	return t1.Sub(t0)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are counted
// once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := time.Duration(0)
		cursor := s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < cursor {
				lo = cursor
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// now is the current offset from the recorder's epoch.
func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// byName collects the durations (or self times), in milliseconds, of
// every span with the given name that started in [from, to).
func (r *recorder) byName(name string, self bool, from, to time.Duration) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var selfs []time.Duration
	if self {
		selfs = selfTimes(r.spans)
	}
	var out []float64
	for i, s := range r.spans {
		if s.name != name || s.start < from || s.start >= to {
			continue
		}
		if self {
			out = append(out, ms(selfs[i]))
		} else {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, the same array-of-events form obs.Tracer writes; Perfetto and
// chrome://tracing load it.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as {"traceEvents":[...]}. Each span
// name gets its own track so overlapping requests stay readable.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	tracks := map[string]int{}
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range r.spans {
		tid, ok := tracks[s.name]
		if !ok {
			tid = len(tracks) + 1
			tracks[s.name] = tid
		}
		ev := chromeEvent{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: tid,
			Args: map[string]any{"span": i, "parent": s.parent, "request": s.id}}
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
		w.Write(b)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
