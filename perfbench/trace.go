package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans stay in memory until the run ends.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, -1 at the root
	id         int64         // iteration or request the span belongs to
}

// tracer records spans when enabled; a nil tracer records nothing, so
// the untraced run pays one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, id int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, id: id})
	h := len(t.spans) - 1
	t.mu.Unlock()
	return h
}

// end closes the span opened by begin.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[h].end = now
	t.mu.Unlock()
}

// layerTimes sums, per span name, the total and the self time: a span's
// duration minus the part of it that its child spans cover.
func (t *tracer) layerTimes() (total, self map[string]time.Duration, count map[string]int) {
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	count = map[string]int{}
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		total[s.name] += d
		count[s.name]++
		self[s.name] += d - t.covered(children[i])
	}
	return total, self, count
}

// covered is the length of the union of the given spans' intervals;
// children of one parent may overlap when they ran on several workers.
func (t *tracer) covered(idx []int) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([]span, 0, len(idx))
	for _, i := range idx {
		if t.spans[i].end >= 0 {
			iv = append(iv, t.spans[i])
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].start < iv[b].start })
	var sum time.Duration
	var curStart, curEnd time.Duration = -1, -1
	for _, s := range iv {
		if s.start > curEnd {
			if curEnd > curStart {
				sum += curEnd - curStart
			}
			curStart, curEnd = s.start, s.end
		} else if s.end > curEnd {
			curEnd = s.end
		}
	}
	if curEnd > curStart {
		sum += curEnd - curStart
	}
	return sum
}

// write dumps every span as tab-separated lines:
// index, parent, id, name, start_ns, end_ns.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.id, s.name, s.start, s.end)
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", n, path)
	return nil
}
