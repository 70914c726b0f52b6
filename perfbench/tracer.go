package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent is the enclosing
// span's ID (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Req     int64  `json:"req"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory. A disabled tracer records nothing, so
// the same replay code runs traced and untraced. Replays are single
// goroutine, so the open spans form a stack.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int // indexes into spans
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, req int64) int {
	if !t.on {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		StartNS: int64(time.Since(t.t0)),
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned, which must be the innermost.
func (t *tracer) end(i int) {
	if !t.on {
		return
	}
	t.spans[i].EndNS = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// layerTimes is, per span name, the spans' total self time — duration
// minus the time their child spans cover — and each span's self time.
type layerTimes map[string]struct {
	self time.Duration
	durs []float64 // each span's self time in ms
}

func (t *tracer) times() layerTimes {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := layerTimes{}
	for _, s := range t.spans {
		e := out[s.Name]
		self := s.dur() - child[s.ID]
		e.self += self
		e.durs = append(e.durs, ms(self))
		out[s.Name] = e
	}
	return out
}

// perUS returns the named spans' total self time divided by count, in
// microseconds.
func (lt layerTimes) perUS(name string, count int) float64 {
	return ratio(float64(lt[name].self)/float64(time.Microsecond), float64(count))
}

// p50ms returns the median self time of the named spans in ms.
func (lt layerTimes) p50ms(name string) float64 { return median(lt[name].durs) }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
