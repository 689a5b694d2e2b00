package main

import (
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/node"
	"repro/internal/wire"
)

// Wrappers for the traced run. Each passes every call through unchanged
// and brackets it with a span on the stack of the goroutine making it:
// an automaton child's callbacks, the Env calls that child makes, and the
// durable.Store calls the consensus engine makes. They are installed
// between the program's modules (before node.Compose, around the Env a
// child receives at Start, around the Store in rsm.Config), never inside.

// timedAuto wraps one child of a composed process (the Ω detector or the
// replicated log). Composition offers every message and timer to every
// child, so only the ones the child owns — owns(m), timer keys under
// prefix — open spans; the rest pass through untimed.
type timedAuto struct {
	inner  node.Automaton
	st     *stack
	owns   func(node.Message) bool
	prefix string
	opOf   func(node.Message) uint64 // client operation a message carries, or 0
	after  func()                    // runs after every owned callback; may be nil

	start, deliver, tick string // span names
}

func newTimedAuto(layer string, inner node.Automaton, st *stack, owns func(node.Message) bool, timerPrefix string) *timedAuto {
	return &timedAuto{
		inner: inner, st: st, owns: owns, prefix: timerPrefix,
		start: layer + ".start", deliver: layer + ".deliver", tick: layer + ".tick",
	}
}

// Start implements node.Automaton: the child gets a timed Env.
func (a *timedAuto) Start(env node.Env) {
	a.st.push(a.start, 0)
	a.inner.Start(timedEnv{Env: env, st: a.st})
	a.st.pop()
	a.done()
}

// Deliver implements node.Automaton.
func (a *timedAuto) Deliver(from node.ID, m node.Message) {
	if !a.owns(m) {
		a.inner.Deliver(from, m)
		return
	}
	var op uint64
	if a.opOf != nil {
		op = a.opOf(m)
	}
	a.st.push(a.deliver, op)
	a.inner.Deliver(from, m)
	a.st.pop()
	a.done()
}

// Tick implements node.Automaton.
func (a *timedAuto) Tick(key string) {
	if !strings.HasPrefix(key, a.prefix) {
		a.inner.Tick(key)
		return
	}
	a.st.push(a.tick, 0)
	a.inner.Tick(key)
	a.st.pop()
	a.done()
}

func (a *timedAuto) done() {
	if a.after != nil {
		a.after()
	}
}

// timedEnv times the Env calls that send or arm timers. A send's span
// covers the transport's whole synchronous send path: accounting, the
// wire encode, and the enqueue onto the link or the delay timer.
type timedEnv struct {
	node.Env
	st *stack
}

// Send implements node.Env.
func (e timedEnv) Send(to node.ID, m node.Message) {
	e.st.push("env.send", 0)
	e.Env.Send(to, m)
	e.st.pop()
	e.st.sample(m)
}

// Broadcast implements node.Env.
func (e timedEnv) Broadcast(m node.Message) {
	e.st.push("env.broadcast", 0)
	e.Env.Broadcast(m)
	e.st.pop()
	e.st.sample(m)
}

// SetTimer implements node.Env.
func (e timedEnv) SetTimer(key string, d time.Duration) {
	e.st.push("env.settimer", 0)
	e.Env.SetTimer(key, d)
	e.st.pop()
}

// timedStore times the consensus engine's persistence calls. Every
// record append is one "durable.append" span; a WAL fsync inside it is
// reported through durable.Options.OnFsync as a child span (see
// liveCluster.walOptions).
type timedStore struct {
	durable.Store
	st *stack
}

// Promise implements durable.Store.
func (s timedStore) Promise(b uint64) {
	s.st.push("durable.append", 0)
	s.Store.Promise(b)
	s.st.pop()
}

// Ballot implements durable.Store.
func (s timedStore) Ballot(b uint64) {
	s.st.push("durable.append", 0)
	s.Store.Ballot(b)
	s.st.pop()
}

// Accept implements durable.Store.
func (s timedStore) Accept(inst, b uint64, v string) {
	s.st.push("durable.append", 0)
	s.Store.Accept(inst, b, v)
	s.st.pop()
}

// Decide implements durable.Store.
func (s timedStore) Decide(inst uint64, v string) {
	s.st.push("durable.append", 0)
	s.Store.Decide(inst, v)
	s.st.pop()
}

// Snapshot implements durable.Store.
func (s timedStore) Snapshot(st *durable.State) error {
	s.st.push("durable.snapshot", 0)
	defer s.st.pop()
	return s.Store.Snapshot(st)
}

// sampled merges the stacks' message samples.
func sampled(stacks []*stack) []node.Message {
	var out []node.Message
	for _, s := range stacks {
		out = append(out, s.msgs...)
	}
	return out
}

// codecCost times the codec's public calls on a message mix: the mean ns
// to Marshal one message and to Unmarshal it back, over enough passes to
// cover codecTiming.
func codecCost(c *wire.Codec, msgs []node.Message) (encNs, decNs float64) {
	if len(msgs) == 0 {
		return 0, 0
	}
	bufs := make([][]byte, len(msgs))
	var n int
	start := time.Now()
	for time.Since(start) < codecTiming {
		for i, m := range msgs {
			b, err := c.Marshal(m)
			if err != nil {
				return 0, 0
			}
			bufs[i] = b
		}
		n += len(msgs)
	}
	encNs = float64(time.Since(start)) / float64(n)
	n = 0
	start = time.Now()
	for time.Since(start) < codecTiming {
		for _, b := range bufs {
			if _, err := c.Unmarshal(b); err != nil {
				return 0, 0
			}
		}
		n += len(bufs)
	}
	return encNs, float64(time.Since(start)) / float64(n)
}

const codecTiming = 200 * time.Millisecond
