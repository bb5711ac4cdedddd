package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share req. A replayed span is a call the benchmark re-ran after the
// request (the decode and Do replays, the serve-cold rebuild stages):
// it belongs to its parent's work but does not lie inside its parent's
// interval, so self time subtracts its whole duration.
type span struct {
	name       string
	id, parent int64
	req        int64
	node       int
	start, end int64 // ns on the recorder's clock
	replayed   bool
	hop        bool   // a forwarded request as its owner saw it
	key        string // response cache key, pairs a hop with its entry span
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// call records a call with no child spans that ran from start to end.
func (r *recorder) call(name string, req int64, start, end time.Time) {
	r.add(span{name: name, req: req, start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch))})
}

// add stores s under a fresh id and returns the id.
func (r *recorder) add(s span) int64 {
	r.mu.Lock()
	r.next++
	s.id = r.next
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.id
}

// snapshot returns the recorded spans; call it once every writer has
// stopped.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// selfTimes returns each span's self time, index-aligned with spans:
// its duration minus the part of its interval that non-replayed
// children cover, minus the full duration of replayed children.
func selfTimes(spans []span) []int64 {
	idx := make(map[int64]int, len(spans))
	for i := range spans {
		idx[spans[i].id] = i
	}
	kids := make(map[int][]int)
	for i := range spans {
		if p, ok := idx[spans[i].parent]; ok && spans[i].parent != 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].dur() - childTime(&spans[i], spans, kids[i])
	}
	return self
}

// childTime is the share of parent's time its children account for.
func childTime(parent *span, spans []span, kids []int) int64 {
	var total int64
	var ivs [][2]int64
	for _, k := range kids {
		c := &spans[k]
		if c.replayed {
			total += c.dur()
			continue
		}
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var end int64 = -1 << 62
	for _, iv := range ivs {
		if iv[0] > end {
			end = iv[0]
		}
		if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// writeSpans writes spans as tab-separated lines: id, parent, req,
// node, name, start ns, end ns, replayed.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tnode\tname\tstart_ns\tend_ns\treplayed")
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%t\n", s.id, s.parent, s.req, s.node, s.name, s.start, s.end, s.replayed)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
