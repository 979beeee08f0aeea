package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one traced run form a
// forest through Parent (0 = root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps every span of a traced run in memory; the run writes
// them out once, at the end, so recording costs two clock reads and one
// append under a mutex.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	rec    *recorder
	id     int64
	parent int64
	name   string
	start  int64
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// start opens a span named name under parent (0 for a root). The id is
// reserved now so children can name their parent before it ends.
func (r *recorder) start(name string, parent int64) *open {
	r.mu.Lock()
	r.spans = append(r.spans, span{})
	id := int64(len(r.spans))
	r.mu.Unlock()
	return &open{rec: r, id: id, parent: parent, name: name, start: r.now()}
}

// end closes the span and returns its duration.
func (o *open) end() time.Duration {
	end := o.rec.now()
	o.rec.mu.Lock()
	o.rec.spans[o.id-1] = span{ID: o.id, Parent: o.parent, Name: o.name, Start: o.start, End: end}
	o.rec.mu.Unlock()
	return time.Duration(end - o.start)
}

// timed runs fn inside a span and passes fn its span id for children.
func (r *recorder) timed(name string, parent int64, fn func(id int64) error) error {
	sp := r.start(name, parent)
	err := fn(sp.id)
	sp.end()
	return err
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children. Children of one parent may run
// in parallel, so their intervals are merged before subtracting.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.ID == 0 {
			continue // reserved but never ended
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(kids[s.ID], s.Start, s.End))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([][2]int64(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	have := false
	flush := func() {
		if have {
			a, b := max(curLo, lo), min(curHi, hi)
			if b > a {
				total += b - a
			}
		}
	}
	for _, iv := range sorted {
		if have && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		flush()
		curLo, curHi, have = iv[0], iv[1], true
	}
	flush()
	return total
}

// duration sums the full duration of every span with the given name.
func duration(spans []span, name string) time.Duration {
	var total time.Duration
	for _, s := range spans {
		if s.ID != 0 && s.Name == name {
			total += time.Duration(s.End - s.Start)
		}
	}
	return total
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}
