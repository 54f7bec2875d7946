package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's own
// files around the program's public entry points. Times are nanoseconds
// since the trace epoch; Parent is -1 for a root span; Trial is the trial
// (die, noise trial) or job the span belongs to.
type Span struct {
	ID, Parent int64
	Name       string
	Trial      int64
	Start, End int64
}

// Tracer records spans for one goroutine; it is not safe for concurrent
// use. Tracers sharing an epoch produce comparable timestamps, and their
// ids stay distinct because each carries its own id base.
type Tracer struct {
	epoch time.Time
	base  int64
	spans []Span
}

// newTracers returns n tracers sharing one epoch, with disjoint id spaces.
func newTracers(n int) []*Tracer {
	epoch := time.Now()
	ts := make([]*Tracer, n)
	for i := range ts {
		ts[i] = &Tracer{epoch: epoch, base: int64(i) << 40}
	}
	return ts
}

// Begin opens a span and returns its id. parent is -1 for a root span.
// A nil tracer records nothing, so untraced runs share the traced code.
func (t *Tracer) Begin(name string, parent, trial int64) int64 {
	if t == nil {
		return -1
	}
	id := t.base + int64(len(t.spans))
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Trial: trial, Start: t.now()})
	return id
}

// End closes the span Begin returned.
func (t *Tracer) End(id int64) {
	if t == nil {
		return
	}
	t.spans[id-t.base].End = t.now()
}

// now is the monotonic time since the epoch.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// allSpans concatenates the tracers' spans.
func allSpans(ts []*Tracer) []Span {
	var out []Span
	for _, t := range ts {
		out = append(out, t.spans...)
	}
	return out
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals
// (clipped to the parent), so overlapping children are not subtracted
// twice.
func selfTimes(spans []Span) map[int64]int64 {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// layerStats sums self time per span name.
type layerStats struct {
	self map[string]int64
}

// aggregate folds spans into per-name self-time totals.
func aggregate(spans []Span) layerStats {
	self := selfTimes(spans)
	st := layerStats{self: map[string]int64{}}
	for _, s := range spans {
		st.self[s.Name] += self[s.ID]
	}
	return st
}

// perTrialUs is the named layer's self time per trial, in microseconds.
func (st layerStats) perTrialUs(name string, trials int) float64 {
	if trials == 0 {
		return 0
	}
	return float64(st.self[name]) / 1e3 / float64(trials)
}

// writeSpans writes the spans as CSV (id,parent,name,trial,start_ns,end_ns).
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,trial,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", s.ID, s.Parent, s.Name, s.Trial, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
