package rsm

import (
	"sort"
	"time"

	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// This file is the pipeline layer: windowed multi-instance phase 2 and
// commit dissemination. The prepared leader drives up to Config.Window
// instances concurrently, each carrying one value (a single command or a
// batch envelope). Every instance costs (n−1) ACCEPT + (n−1) ACCEPTED
// plus one DECIDE per replica that forwarded a command into it, whatever
// the batch size, which is where batching's amortization comes from.
//
// Decisions reach the other followers lazily: every ACCEPT carries the
// leader's first gap as CommitUpTo, and an acceptor learns every instance
// below it that it accepted at the same ballot. A forwarding replica
// cannot wait for the next ACCEPT — its client is waiting — so the leader
// sends it, as soon as its commands become applicable, every decision it
// has not yet been told through a CommitUpTo or an earlier DECIDE. When
// the stream idles, LEARN gap-fill (log.go) delivers the tail.
//
// CommitUpTo is sound because a leader's ballot binds one value per
// instance and the leader's log below its first gap holds decided values
// only: learn() deposes a leader whose own proposal at its ballot loses an
// instance, before its next ACCEPT could advertise that instance.

// maxRetryTimeout caps retry backoffs.
const maxRetryTimeout = 5 * time.Second

type inflight struct {
	v       consensus.Value
	acks    map[node.ID]bool
	started sim.Time
	timeout time.Duration // per-instance retry backoff
	// tctx is the instance's open "quorum" span (zero when untraced):
	// ACCEPTs broadcast under it, ACCEPTED arrivals are events on it,
	// and the majority closes it.
	tctx tracing.Context
}

// pipeline is the leader-side phase-2 state. Everything but nextInst is
// per ballot: abdicateLeader clears it and maybeFinishPrepare resets it.
type pipeline struct {
	inflights map[int]*inflight
	nextInst  int
	// commitSent is the largest CommitUpTo broadcast at this ballot.
	commitSent int
	// need[f] is one past the highest instance follower f forwarded a
	// command into, and told[f] how far the leader has sent f DECIDEs:
	// f can apply its own commands once it knows every instance below
	// need[f].
	need, told []int
}

// resetCommits starts a ballot's commit dissemination: followers are
// taken to know everything below from, and nothing is owed to anyone.
func (p *pipeline) resetCommits(n, from int) {
	if len(p.need) != n {
		p.need, p.told = make([]int, n), make([]int, n)
	}
	for f := range p.need {
		p.need[f], p.told[f] = 0, from
	}
	p.commitSent = 0
}

// noteForwarder records that follower f forwarded a command now riding in
// instance inst (node.None, a command queued before Start, owes nothing).
func (p *pipeline) noteForwarder(f node.ID, inst int) {
	if f >= 0 && int(f) < len(p.need) && inst >= p.need[f] {
		p.need[f] = inst + 1
	}
}

// hasRoom reports whether a new instance may be opened under the window.
func (p *pipeline) hasRoom(window int) bool { return len(p.inflights) < window }

// open assigns the next free instance.
func (p *pipeline) open(v consensus.Value, now sim.Time) int {
	inst := p.nextInst
	p.nextInst++
	p.inflights[inst] = &inflight{v: v, acks: make(map[node.ID]bool, 4), started: now}
	return inst
}

// propose drives value v in a fresh instance of the pipeline. enqs, when
// non-nil, are the enqueue times of the envelope's commands, registered
// with the applier for latency stamping before any message can decide
// the instance. tctxs, when non-nil, are the commands' trace contexts:
// the instance opens a "quorum" span under the first traced command and
// the applier later closes out every command's trace.
func (r *Node) propose(v consensus.Value, enqs []sim.Time, tctxs []tracing.Context) int {
	now := r.env.Now()
	inst := r.pipe.open(v, now)
	fl := r.pipe.inflights[inst]
	fl.acks[r.me] = true
	for _, ctx := range tctxs {
		if ctx.Valid() {
			// Stage two: the quorum wait, open until a majority accepts.
			// One span per instance — a batch shares its first traced
			// command's trace.
			fl.tctx = r.cfg.Tracer.Start(now, ctx, "quorum")
			break
		}
	}
	if enqs != nil {
		r.app.track(inst, v, enqs, tctxs)
	}
	r.acc.accepted[inst] = acceptedEntry{b: r.prop.ballot, v: v}
	// The leader's self-accept is a vote like any other: durable before
	// the ACCEPT broadcast makes it visible.
	r.cfg.Store.Accept(uint64(inst), uint64(r.prop.ballot), string(v))
	r.env.Broadcast(r.traced(fl.tctx, r.acceptMsg(inst, v)))
	r.maybeDecide(inst)
	return inst
}

// reopen re-drives an existing instance at the current ballot — the
// leader-change path (re-proposals and no-op fillers). Bypasses the
// window: these instances block the decided prefix.
func (r *Node) reopen(inst int, v consensus.Value) {
	r.pipe.inflights[inst] = &inflight{v: v, acks: map[node.ID]bool{r.me: true}, started: r.env.Now()}
	r.acc.accepted[inst] = acceptedEntry{b: r.prop.ballot, v: v}
	r.cfg.Store.Accept(uint64(inst), uint64(r.prop.ballot), string(v))
	r.env.Broadcast(r.acceptMsg(inst, v))
}

// dropInflights abandons every in-flight instance, closing its quorum
// span, and releases the commands they carry back to the batcher: an
// abdicating leader's votes at its old ballot must never count toward a
// new ballot, and its commands must be proposed or forwarded again.
func (r *Node) dropInflights() {
	if len(r.pipe.inflights) == 0 {
		return
	}
	now := r.env.Now()
	for inst, fl := range r.pipe.inflights {
		r.cfg.Tracer.End(now, fl.tctx)
		delete(r.pipe.inflights, inst)
	}
	r.bat.release(r.me)
}

// tellForwarders sends each forwarding follower the decisions it still
// needs to apply its own commands: every instance below both the leader's
// first gap and the follower's need that neither a broadcast CommitUpTo
// nor an earlier DECIDE has covered.
func (r *Node) tellForwarders() {
	for f, need := range r.pipe.need {
		r.tell(node.ID(f), min(r.log.firstGap, need))
	}
}

// tellFollowers brings every follower up to the leader's first gap. A
// checkpoint calls it before absorbing the applied prefix: a leader
// restarted from that checkpoint can no longer serve those instances, so
// it must not hold the only copy of a decision no follower has heard.
func (r *Node) tellFollowers() {
	for f := range r.pipe.told {
		if node.ID(f) != r.me {
			r.tell(node.ID(f), r.log.firstGap)
		}
	}
}

// tell sends follower f every decision below to that neither a broadcast
// CommitUpTo nor an earlier DECIDE has covered. to must not exceed the
// first gap.
func (r *Node) tell(f node.ID, to int) {
	for inst := max(r.pipe.told[f], r.pipe.commitSent, r.log.low); inst < to; inst++ {
		v, _ := r.log.get(inst)
		r.env.Send(f, DecideMsg{Inst: inst, V: v})
	}
	if to > r.pipe.told[f] {
		r.pipe.told[f] = to
	}
}

// redrive rebroadcasts stalled instances with per-instance backoff.
func (r *Node) redrive(now sim.Time) {
	for inst, fl := range r.pipe.inflights {
		if fl.timeout == 0 {
			fl.timeout = r.cfg.RetryTimeout
		}
		if now.Sub(fl.started) >= fl.timeout {
			fl.started = now
			if fl.timeout < maxRetryTimeout {
				fl.timeout *= 2
			}
			r.env.Broadcast(r.traced(fl.tctx, r.acceptMsg(inst, fl.v)))
		}
	}
}

// onAccept is the acceptor's phase-2 handler.
func (r *Node) onAccept(from node.ID, m AcceptMsg) {
	v, decided := r.log.get(m.Inst)
	switch {
	case decided:
		r.env.Send(from, DecideMsg{Inst: m.Inst, V: v})
	case m.Inst < r.log.low:
		// forgotten: decided and applied cluster-wide long ago
	case m.B >= r.acc.promised:
		now := r.env.Now()
		r.acc.promised = m.B
		r.acc.accepted[m.Inst] = acceptedEntry{b: m.B, v: m.V}
		r.acc.lastAcceptAt = now
		// Durable before visible: the vote must survive a crash once the
		// ACCEPTED is out. The record also implies the promise at m.B, so
		// no separate promise record is written here.
		r.cfg.Store.Accept(uint64(m.Inst), uint64(m.B), string(m.V))
		// The ACCEPTED doubles as the lease ack for a piggybacked grant.
		ack := r.noteGrant(m.B, m.LeaseSeq, now)
		// A traced ACCEPT earns a synchronous "accept" span here and the
		// reply carries that span's context back, closing the round trip
		// in the trace tree. Untraced (or tracing off): plain send.
		actx := r.cfg.Tracer.Record(now, now, r.curCtx, "accept", int(from), "")
		r.env.Send(from, r.traced(actx, AcceptedMsg{B: m.B, Inst: m.Inst, Done: r.log.firstGap, LeaseSeq: ack}))
		r.maybeForget(m.MinDone)
	default:
		r.env.Send(from, NackMsg{B: m.B, Promised: r.acc.promised})
	}
	// The commit index is the leader's statement about earlier instances:
	// it holds whatever this acceptor did with the proposal itself — say,
	// when the forwarder's DECIDE overtook this ACCEPT.
	r.learnCommitted(m.B, m.CommitUpTo)
}

// learnCommitted applies an ACCEPT's CommitUpTo: everything below it that
// this acceptor accepted at the same ballot carries the decided value (a
// ballot binds one value per instance). The accepted map is walked when
// it is smaller than the span, so a far-behind acceptor pays per entry,
// not per instance.
func (r *Node) learnCommitted(b consensus.Ballot, upTo int) {
	if upTo-r.log.firstGap <= len(r.acc.accepted) {
		for inst := r.log.firstGap; inst < upTo; inst++ {
			if e, ok := r.acc.accepted[inst]; ok && e.b == b {
				r.learn(inst, e.v)
			}
		}
		return
	}
	var insts []int
	for inst, e := range r.acc.accepted {
		if inst < upTo && e.b == b {
			insts = append(insts, inst)
		}
	}
	sort.Ints(insts) // learn in log order: the WAL's Decide records stay deterministic
	for _, inst := range insts {
		r.learn(inst, r.acc.accepted[inst].v)
	}
}

func (r *Node) onAccepted(from node.ID, m AcceptedMsg) {
	r.dones.observe(from, m.Done)
	if m.B != r.prop.ballot {
		return
	}
	r.onLeaseAck(from, m.B, m.LeaseSeq)
	fl, ok := r.pipe.inflights[m.Inst]
	if !ok {
		return
	}
	fl.acks[from] = true
	r.cfg.Tracer.Event(r.env.Now(), fl.tctx, "accepted", int(from))
	r.maybeDecide(m.Inst)
}

func (r *Node) maybeDecide(inst int) {
	fl, ok := r.pipe.inflights[inst]
	if !ok || len(fl.acks) < consensus.Majority(r.n) {
		return
	}
	delete(r.pipe.inflights, inst)
	if fl.tctx.Valid() {
		now := r.env.Now()
		r.cfg.Tracer.End(now, fl.tctx) // quorum complete
		if p, ok := r.app.props[inst]; ok {
			p.decidedAt = now // start of the apply stage for this batch
			r.app.props[inst] = p
		}
	}
	if inst == r.reads.barrier {
		// Our own ack quorum at our own ballot decided the read barrier —
		// the completion proof completeFallbackReads requires.
		r.reads.barrierOwn = true
	}
	r.learn(inst, fl.v)
	// A window slot freed up: pull in queued work.
	r.pump()
}

// acceptMsg builds a phase-2 message carrying the current commit index,
// forgetting horizon, and lease grant. It is only ever broadcast, so every
// follower has now been told the commit index.
func (r *Node) acceptMsg(inst int, v consensus.Value) AcceptMsg {
	m := AcceptMsg{B: r.prop.ballot, Inst: inst, V: v, CommitUpTo: r.log.firstGap}
	r.pipe.commitSent = max(r.pipe.commitSent, m.CommitUpTo)
	if r.cfg.Forget {
		m.MinDone = r.dones.min()
	}
	m.LeaseSeq = r.grantSeq(r.env.Now())
	return m
}
