package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/node"
)

// The traced run records spans from the benchmark's own code only: around
// calls into each module's public functions and hooks (see wrap.go). A span
// has a name, a start, an end and its parent; spans serving one client
// operation carry its id. Spans are kept in memory and written out when
// the run ends. Untraced runs install none of this.

// span is one closed interval of work.
type span struct {
	ID, Parent uint64
	Op         uint64 // client operation id, 0 when the span serves no single one
	Name       string
	Start, End int64 // ns since the recorder's zero
}

// layerAgg accumulates the spans of one name.
type layerAgg struct {
	Count int64
	Busy  int64   // ns, children included
	Self  int64   // ns, children excluded
	Durs  []int64 // every duration, for the names in sampledSpans
}

// sampledSpans are the span names whose duration distribution is
// reported, not only their sum.
var sampledSpans = map[string]bool{"durable.append": true, "durable.fsync": true}

// frame is an open span on a stack.
type frame struct {
	id, op uint64
	name   string
	start  int64
	child  int64 // ns covered by closed children
}

// maxKeptSpans bounds the spans held for the span file; aggregates keep
// counting past it. About 60 MB of span records at the cap.
const maxKeptSpans = 1 << 20

// recorder owns every stack of one traced run.
type recorder struct {
	t0 time.Time
	// sampleMsgs keeps a sample of the messages sent for the codec
	// timing; only the live workloads, which run the codec, set it.
	sampleMsgs bool
	nextID     atomic.Uint64
	kept       atomic.Int64

	mu     sync.Mutex
	stacks []*stack
}

// stack is the span stack of one goroutine that runs nested calls: a
// station's node loop, the load generator, or one sweep task. It is not
// safe for concurrent use. A nil *stack records nothing.
type stack struct {
	rec   *recorder
	open  []frame
	spans []span
	agg   map[string]*layerAgg

	sends int            // Env sends seen
	msgs  []node.Message // every sampleEvery-th of them, for the codec timing
}

// The codec is timed on a sample of the messages the processes sent.
const (
	sampleEvery = 16
	maxSampled  = 4096
)

// sample keeps every sampleEvery-th message sent.
func (s *stack) sample(m node.Message) {
	if !s.rec.sampleMsgs {
		return
	}
	s.sends++
	if s.sends%sampleEvery == 0 && len(s.msgs) < maxSampled {
		s.msgs = append(s.msgs, m)
	}
}

// newStack returns a stack registered with r, or nil when r is nil.
func (r *recorder) newStack() *stack {
	if r == nil {
		return nil
	}
	s := &stack{rec: r, agg: make(map[string]*layerAgg)}
	r.mu.Lock()
	r.stacks = append(r.stacks, s)
	r.mu.Unlock()
	return s
}

// now is the recorder's clock.
func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// push opens a span named name, child of the innermost open span.
func (s *stack) push(name string, op uint64) {
	if s == nil {
		return
	}
	s.open = append(s.open, frame{id: s.rec.nextID.Add(1), op: op, name: name, start: s.rec.now()})
}

// pop closes the innermost open span now.
func (s *stack) pop() {
	if s == nil {
		return
	}
	s.popAt(s.rec.now())
}

// popAt closes the innermost open span at end. Its self time is its
// duration minus the time its closed children covered, and its whole
// duration is charged to its parent's children.
func (s *stack) popAt(end int64) {
	f := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	var parent uint64
	if len(s.open) > 0 {
		p := &s.open[len(s.open)-1]
		parent = p.id
		p.child += end - f.start
	}
	s.close(span{ID: f.id, Parent: parent, Op: f.op, Name: f.name, Start: f.start, End: end}, f.child)
}

// closed records a span that finished before it was reported — a WAL
// fsync whose duration arrives through a hook — as a child of the
// innermost open span.
func (s *stack) closed(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.push(name, 0)
	end := s.rec.now()
	s.open[len(s.open)-1].start = end - int64(d)
	s.popAt(end)
}

func (s *stack) close(sp span, child int64) {
	a := s.agg[sp.Name]
	if a == nil {
		a = &layerAgg{}
		s.agg[sp.Name] = a
	}
	a.Count++
	a.Busy += sp.End - sp.Start
	a.Self += sp.End - sp.Start - child
	if sampledSpans[sp.Name] {
		a.Durs = append(a.Durs, sp.End-sp.Start)
	}
	if s.rec.kept.Add(1) <= maxKeptSpans {
		s.spans = append(s.spans, sp)
	}
}

// totals merges every stack's aggregate for name. Call after the stacks'
// goroutines have stopped.
func (r *recorder) totals(name string) layerAgg {
	var t layerAgg
	if r == nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.stacks {
		if a := s.agg[name]; a != nil {
			t.Count += a.Count
			t.Busy += a.Busy
			t.Self += a.Self
			t.Durs = append(t.Durs, a.Durs...)
		}
	}
	return t
}

// spanCount is how many spans closed in the run.
func (r *recorder) spanCount() int64 { return r.kept.Load() }

// write stores the kept spans as CSV, sorted by start.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	var all []span
	for _, s := range r.stacks {
		all = append(all, s.spans...)
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,op,name,start_ns,end_ns")
	for _, sp := range all {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", sp.ID, sp.Parent, sp.Op, sp.Name, sp.Start, sp.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
