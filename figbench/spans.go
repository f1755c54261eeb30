package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer. Spans nest by the order they
// open on the benchmark's single goroutine.
type span struct {
	parent     int // index into recorder.spans, -1 for the root
	cat, name  string
	start, end time.Time
}

// recorder keeps the traced run's spans in memory; they are written out
// when the run ends. A nil recorder records nothing, which is how the
// untraced run and the untraced passes of a traced run leave the hot
// path alone.
type recorder struct {
	spans []span
	open  []int
	trace *obs.Trace // fixes the time origin of the Chrome trace
	buf   bytes.Buffer
}

func newRecorder() *recorder {
	r := &recorder{}
	r.trace = obs.NewTrace(&r.buf)
	return r
}

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(cat, name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{parent: parent, cat: cat, name: name, start: time.Now()})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("figbench: span %d closed out of order", id))
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].end = time.Now()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func (r *recorder) selfTimes() []time.Duration {
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].start.Before(r.spans[kids[b]].start) })
		covered := time.Duration(0)
		reach := s.start
		for _, k := range kids {
			from, to := r.spans[k].start, r.spans[k].end
			if from.Before(reach) {
				from = reach
			}
			if to.After(s.end) {
				to = s.end
			}
			if to.After(from) {
				covered += to.Sub(from)
				reach = to
			}
		}
		self[i] = s.end.Sub(s.start) - covered
	}
	return self
}

// checkSelfTimes verifies that the spans form one tree whose self times
// sum to the root (workload) span: a child that overlaps a sibling or
// leaks out of its parent breaks the sum.
func (r *recorder) checkSelfTimes() error {
	if len(r.spans) == 0 || len(r.open) != 0 {
		return fmt.Errorf("span tree incomplete: %d spans, %d still open", len(r.spans), len(r.open))
	}
	var sum time.Duration
	for i, d := range r.selfTimes() {
		if i > 0 && r.spans[i].parent < 0 {
			return fmt.Errorf("span %q has no parent", r.spans[i].name)
		}
		sum += d
	}
	root := r.spans[0].end.Sub(r.spans[0].start)
	if diff := sum - root; diff < -time.Microsecond || diff > time.Microsecond {
		return fmt.Errorf("self times sum to %v, workload span is %v", sum, root)
	}
	return nil
}

// writeChrome renders the spans as Chrome trace_event JSON at path.
func (r *recorder) writeChrome(path string) error {
	for i, s := range r.spans {
		r.trace.Span(s.cat, s.name, 1, s.start, s.end.Sub(s.start),
			"id", strconv.Itoa(i), "parent", strconv.Itoa(s.parent))
	}
	if err := r.trace.Close(); err != nil {
		return err
	}
	return os.WriteFile(path, r.buf.Bytes(), 0o644)
}
