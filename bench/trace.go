package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the span that caused this one (-1 for a
// root). Times are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: every method is a no-op, so the untraced run
// pays one nil check per boundary.
//
// begin/end keep a stack of open spans and must be called from one
// goroutine; add is safe from any goroutine and takes its parent
// explicitly.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(now)})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(now)
	t.stack = t.stack[:len(t.stack)-1]
	return t.spans[id].dur()
}

// add records a finished span: one measured on another goroutine, or a
// stage whose duration the program reported itself (Resolution.Stats)
// and which is laid out inside the span of the call that returned it.
func (t *tracer) add(name string, op, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: s, End: s + int64(d)})
	return id
}

// selfTimes returns each span's duration minus the part its children
// cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerOf maps a span name such as "wal.sync" to its layer, "wal".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// waterfallRow is one layer's share of an operation's wall time.
type waterfallRow struct {
	Layer string  `json:"layer"`
	MS    float64 `json:"ms"`
	Share float64 `json:"share"`
}

// waterfall sums self time per layer over the "op" spans directly below
// root and returns it per op, in the order the layers first appear,
// with the number of ops. An op span's own self time — what none of its
// children cover — is the last row, "unattributed". Shares are left for
// the caller, who knows the wall time the op took over HTTP.
func (t *tracer) waterfall(root int) ([]waterfallRow, int) {
	self := t.selfTimes()
	under := make([]bool, len(t.spans))
	sum := map[string]time.Duration{}
	var order []string
	ops := 0
	for i := root + 1; i < len(t.spans); i++ {
		s := t.spans[i]
		l := layerOf(s.Name)
		switch {
		case s.Parent == root && s.Name == "op":
			ops++
			l = "unattributed"
		case s.Parent < 0 || !under[s.Parent]:
			continue
		}
		under[i] = true
		if _, ok := sum[l]; !ok && l != "unattributed" {
			order = append(order, l)
		}
		sum[l] += self[i]
	}
	if ops == 0 {
		return nil, 0
	}
	rows := make([]waterfallRow, 0, len(order)+1)
	for _, l := range append(order, "unattributed") {
		rows = append(rows, waterfallRow{Layer: l, MS: ms(sum[l]) / float64(ops)})
	}
	return rows, ops
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
