package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/node"
	"repro/internal/sim"
)

func TestArrivalsAreSeeded(t *testing.T) {
	gen := func(seed int64) ([]time.Duration, []op) {
		due := arrivals(seeded(seed, streamArrivals), 2000, 0, time.Second)
		return due, makeOps(due, 0.5, seed)
	}
	a, opsA := gen(7)
	b, opsB := gen(7)
	c, _ := gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrival times")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same arrival times")
	}
	for i := range opsA {
		if opsA[i].key != opsB[i].key || opsA[i].read != opsB[i].read || opsA[i].val != opsB[i].val {
			t.Fatalf("op %d differs between runs of one seed", i)
		}
	}
	// About rate × span arrivals, in order, inside the span.
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals at 2000/s over 1s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("arrival %d at %v out of order or range", i, a[i])
		}
	}
}

func TestOpValueRoundTrip(t *testing.T) {
	v := opValue(123456, 77, seeded(1, streamKeys))
	if len(v) != valueBytes {
		t.Fatalf("value is %d bytes, want %d", len(v), valueBytes)
	}
	if got := opID(v); got != 123456 {
		t.Fatalf("opID = %d, want 123456", got)
	}
	if opID("probe") != 0 || opID("__noop__") != 0 {
		t.Fatal("probe and no-op values must map to operation 0")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileKeepsTenBeyond(t *testing.T) {
	// 2000 samples support p99 itself: 20 lie beyond it.
	if q := percentile(seq(2000), 0.99); q.Q != 0.99 || q.Value != 1980 || q.N != 2000 {
		t.Fatalf("p99 of 2000 = %+v", q)
	}
	// 100 samples: p99 would rest on one sample; the highest percentile
	// with ten beyond it is p90.
	q := percentile(seq(100), 0.99)
	if q.Q != 0.9 || q.Value != 90 || q.N != 100 {
		t.Fatalf("p99 of 100 = %+v, want p90 = 90", q)
	}
	if beyond := 100 - int(q.Value); beyond < minBeyond {
		t.Fatalf("%d samples beyond the reported percentile", beyond)
	}
	// The median is reported as asked however few the samples.
	if q := percentile(seq(5), 0.5); q.Q != 0.5 || q.Value != 3 {
		t.Fatalf("median of 1..5 = %+v", q)
	}
}

func TestWindowCostsPerServedOperation(t *testing.T) {
	// Three one-second windows of 10 operations each. The second window
	// holds a costly stretch; one of its operations failed and one read is
	// not counted.
	ops := make([]op, 30)
	for i := range ops {
		o := &ops[i]
		o.due = int64(i) * int64(time.Second) / 10
		o.done.Store(o.due + int64(time.Millisecond))
	}
	ops[12].done.Store(0)
	ops[13].read = true
	s := int64(time.Second)
	lr := &liveResult{
		r:    &liveRun{ops: ops},
		late: make([]float64, len(ops)),
		cuts: []cut{{0, 0, 0}, {s, 1000e3, 30}, {2 * s, 9000e3, 62}, {3 * s, 10000e3, 92}},
		keep: isWrite,
	}
	cpu, msgs := lr.windowCosts()
	if want := []float64{100, 1000, 100}; !reflect.DeepEqual(cpu, want) {
		t.Fatalf("cpu per op = %v, want %v", cpu, want)
	}
	if want := []float64{3, 4, 3}; !reflect.DeepEqual(msgs, want) {
		t.Fatalf("msgs per op = %v, want %v", msgs, want)
	}
	if m := median(cpu); m != 100 {
		t.Fatalf("median cpu per op = %v: the costly window must not move it", m)
	}
}

func TestWindowTailIsMedianOfWindows(t *testing.T) {
	// Three 100 ms windows of 1000 samples; one holds a stall.
	var pts [][2]float64
	for w := 0; w < 3; w++ {
		for i := 0; i < 1000; i++ {
			lat := float64(i%100) / 10 // ten each of 0..9.9: p99 = 9.8
			if w == 1 {
				lat = 500
			}
			pts = append(pts, [2]float64{float64(w*100) + float64(i)/10, lat})
		}
	}
	q := windowTail(pts, 100, 0.99)
	if q.Value != 9.8 || q.N != 3000 {
		t.Fatalf("windowTail = %+v, want 9.8 over 3000 samples", q)
	}
}

func TestSpanSelfTime(t *testing.T) {
	rec := &recorder{t0: time.Now()}
	st := rec.newStack()
	st.push("a", 7)
	st.push("b", 0)
	time.Sleep(2 * time.Millisecond)
	st.pop()
	st.push("c", 0)
	time.Sleep(2 * time.Millisecond)
	st.closed("d", time.Millisecond) // finished before it was reported
	st.pop()
	st.pop()
	if len(st.open) != 0 {
		t.Fatalf("%d spans left open", len(st.open))
	}
	byName := map[string]span{}
	for _, sp := range st.spans {
		byName[sp.Name] = sp
	}
	a, b, c, d := byName["a"], byName["b"], byName["c"], byName["d"]
	dur := func(s span) int64 { return s.End - s.Start }
	if b.Parent != a.ID || c.Parent != a.ID || d.Parent != c.ID || a.Parent != 0 {
		t.Fatalf("parents: a=%d b→%d c→%d d→%d", a.ID, b.Parent, c.Parent, d.Parent)
	}
	if a.Op != 7 {
		t.Fatalf("op id %d, want 7", a.Op)
	}
	if dur(d) != int64(time.Millisecond) {
		t.Fatalf("closed span lasted %d ns", dur(d))
	}
	if got, want := st.agg["a"].Self, dur(a)-dur(b)-dur(c); got != want {
		t.Fatalf("self(a) = %d, want dur(a)-dur(b)-dur(c) = %d", got, want)
	}
	if got, want := st.agg["c"].Self, dur(c)-dur(d); got != want {
		t.Fatalf("self(c) = %d, want %d", got, want)
	}
	if got := st.agg["b"].Self; got != dur(b) {
		t.Fatalf("leaf self(b) = %d, want its duration %d", got, dur(b))
	}
	if tot := rec.totals("a"); tot.Count != 1 || tot.Busy != dur(a) {
		t.Fatalf("totals(a) = %+v", tot)
	}
}

// callLog records every call made on the fakes below.
type callLog []string

func (l *callLog) add(s string) { *l = append(*l, s) }

type fakeStore struct{ log *callLog }

func (s fakeStore) Promise(b uint64)                { s.log.add(fmt.Sprint("promise ", b)) }
func (s fakeStore) Ballot(b uint64)                 { s.log.add(fmt.Sprint("ballot ", b)) }
func (s fakeStore) Accept(inst, b uint64, v string) { s.log.add(fmt.Sprint("accept ", inst, b, v)) }
func (s fakeStore) Decide(inst uint64, v string)    { s.log.add(fmt.Sprint("decide ", inst, v)) }
func (s fakeStore) Snapshot(*durable.State) error   { s.log.add("snapshot"); return nil }
func (s fakeStore) State() *durable.State           { s.log.add("state"); return nil }
func (s fakeStore) Close() error                    { s.log.add("close"); return nil }

func TestTimedStorePassesThrough(t *testing.T) {
	var direct, wrapped callLog
	drive := func(s durable.Store) {
		s.Promise(1)
		s.Ballot(2)
		s.Accept(3, 2, "x")
		s.Decide(3, "x")
		_ = s.Snapshot(&durable.State{})
		_ = s.State()
		_ = s.Close()
	}
	drive(fakeStore{&direct})
	st := (&recorder{t0: time.Now()}).newStack()
	drive(timedStore{Store: fakeStore{&wrapped}, st: st})
	if !reflect.DeepEqual(direct, wrapped) {
		t.Fatalf("wrapped calls %v, direct %v", wrapped, direct)
	}
	if n := st.agg["durable.append"].Count; n != 4 {
		t.Fatalf("%d append spans, want 4", n)
	}
}

type fakeEnv struct{ log *callLog }

func (e fakeEnv) ID() node.ID                          { return 1 }
func (e fakeEnv) N() int                               { return 3 }
func (e fakeEnv) Now() sim.Time                        { return 42 }
func (e fakeEnv) Send(to node.ID, m node.Message)      { e.log.add("send " + m.Kind()) }
func (e fakeEnv) Broadcast(m node.Message)             { e.log.add("broadcast " + m.Kind()) }
func (e fakeEnv) SetTimer(key string, d time.Duration) { e.log.add("set " + key) }
func (e fakeEnv) StopTimer(key string)                 { e.log.add("stop " + key) }
func (e fakeEnv) Logf(string, ...any)                  { e.log.add("logf") }

type msg string

func (m msg) Kind() string { return string(m) }

// fakeAuto logs its callbacks and, on each, uses the Env it was started
// with, so the test sees both directions of the wrapper.
type fakeAuto struct {
	log *callLog
	env node.Env
}

func (a *fakeAuto) Start(env node.Env) {
	a.env = env
	a.log.add("start")
	a.env.SetTimer("x/t", time.Second)
}

func (a *fakeAuto) Deliver(from node.ID, m node.Message) {
	a.log.add("deliver " + m.Kind())
	a.env.Send(from, msg("reply"))
	a.env.Broadcast(msg("all"))
	a.env.StopTimer("x/t")
	a.log.add("now " + time.Duration(a.env.Now()).String())
}

func (a *fakeAuto) Tick(key string) { a.log.add("tick " + key) }

func TestTimedAutoPassesThrough(t *testing.T) {
	var direct, wrapped callLog
	drive := func(a node.Automaton, log *callLog) {
		a.Start(fakeEnv{log})
		a.Deliver(2, msg("mine"))
		a.Deliver(2, msg("other"))
		a.Tick("x/t")
		a.Tick("y/t")
	}
	drive(&fakeAuto{log: &direct}, &direct)
	st := (&recorder{t0: time.Now()}).newStack()
	owns := func(m node.Message) bool { return m.Kind() == "mine" }
	ta := newTimedAuto("x", &fakeAuto{log: &wrapped}, st, owns, "x/")
	afters := 0
	ta.after = func() { afters++ }
	drive(ta, &wrapped)
	if !reflect.DeepEqual(direct, wrapped) {
		t.Fatalf("wrapped calls\n%v\ndirect\n%v", wrapped, direct)
	}
	// Owned callbacks only: Start, the "mine" delivery, the x/ tick.
	for name, want := range map[string]int64{"x.start": 1, "x.deliver": 1, "x.tick": 1, "env.send": 2, "env.broadcast": 2, "env.settimer": 1} {
		if a := st.agg[name]; a == nil || a.Count != want {
			t.Errorf("%s spans: %+v, want %d", name, a, want)
		}
	}
	if afters != 3 {
		t.Errorf("after ran %d times, want 3", afters)
	}
}
