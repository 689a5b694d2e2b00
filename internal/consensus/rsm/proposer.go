package rsm

import (
	"sort"
	"time"

	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/sim"
)

// This file is the proposer layer: ballot arithmetic and the one-time
// phase 1 that establishes a stable ballot covering every log instance.
// Once prepared, the leader never runs phase 1 again while its ballot
// stands — each command (batch) costs only phase-2 traffic.
//
// Phase 1 must not miss a chosen value. An acceptor that learns an
// instance drops its vote for it, so a quorum whose members have all
// learned instance k would report nothing there, and a preparer that had
// not learned k would fill it with a no-op. The PREPARE therefore carries
// the preparer's first gap, and every promiser reports the decisions it
// knows at or above it; the preparer learns them before choosing what to
// propose. The report is capped (promiseMaxDecided, promiseMaxBytes). A
// capped promise ends in a PromCapped entry, and the new leader then
// holds: it proposes nothing below that entry's instance that it has not
// learned, and catches up there by LEARN from the capped promiser.

// proposer is the leader-side ballot state.
type proposer struct {
	ballot      consensus.Ballot
	prepared    bool
	preparing   bool
	prepStarted sim.Time
	prepTimeout time.Duration // exponential backoff on stalled prepares
	promises    map[node.ID]PromiseMsg

	// holdTo is one past the last instance a capped promise covered:
	// below it, instances this leader has not learned may be decided at
	// holdFrom. holdAsk is the first gap at which to ask holdFrom for the
	// next LEARN batch; holdGap and holdSince detect a catch-up that
	// stopped moving.
	holdTo    int
	holdFrom  node.ID
	holdAsk   int
	holdGap   int
	holdSince sim.Time
}

// abdicate drops any leader role; the next drive tick re-prepares if
// Omega still nominates this process.
func (p *proposer) abdicate() {
	p.prepared = false
	p.preparing = false
	p.holdTo = 0
}

// startPrepare opens (or re-opens) the stable ballot.
func (r *Node) startPrepare() {
	base := r.acc.promised
	if r.prop.ballot > base {
		base = r.prop.ballot
	}
	r.prop.ballot = base.Next(r.me, r.n)
	r.prop.preparing = true
	r.prop.prepStarted = r.env.Now()
	if r.prop.prepTimeout == 0 {
		r.prop.prepTimeout = r.cfg.RetryTimeout
	} else if r.prop.prepTimeout < maxRetryTimeout {
		r.prop.prepTimeout *= 2
	}
	r.prop.promises = make(map[node.ID]PromiseMsg, r.n)
	r.acc.promised = r.prop.ballot
	// Durable before visible: the ballot (so a restart outbids it, never
	// reattaching a new value to it) and the self-promise must hit the
	// store before the PREPARE leaves this node.
	r.cfg.Store.Ballot(uint64(r.prop.ballot))
	r.cfg.Store.Promise(uint64(r.prop.ballot))
	r.prop.promises[r.me] = PromiseMsg{B: r.prop.ballot, Entries: r.undecidedAccepted()}
	r.cfg.Tracer.Mark(r.prop.prepStarted, "prepare", -1)
	r.env.Logf("rsm: preparing ballot %v", r.prop.ballot)
	r.env.Broadcast(PrepareMsg{B: r.prop.ballot, FirstGap: r.log.firstGap})
	r.maybeFinishPrepare()
}

// undecidedAccepted lists this acceptor's accepted entries for instances
// not yet known decided.
func (r *Node) undecidedAccepted() []PromEntry {
	var out []PromEntry
	for inst, e := range r.acc.accepted {
		if _, decided := r.log.get(inst); decided {
			continue
		}
		out = append(out, PromEntry{Inst: inst, AccB: e.b, AccV: e.v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Inst < out[j].Inst })
	return out
}

// promiseEntries is a PROMISE's report: the undecided accepted entries,
// then the decisions known at or above the preparer's first gap, capped
// by count and bytes, with a PromCapped entry for whatever the cap left
// out.
func (r *Node) promiseEntries(firstGap int) []PromEntry {
	out := r.undecidedAccepted()
	count, bytes := 0, 0
	for inst := max(firstGap, r.log.low); inst <= r.log.highestDecided; inst++ {
		v, ok := r.log.get(inst)
		if !ok {
			continue
		}
		if count == promiseMaxDecided || bytes+len(v) > promiseMaxBytes {
			return append(out, PromEntry{Inst: r.log.highestDecided, Mark: PromCapped})
		}
		out = append(out, PromEntry{Inst: inst, AccV: v, Mark: PromDecided})
		count++
		bytes += len(v)
	}
	return out
}

func (r *Node) onPrepare(from node.ID, m PrepareMsg) {
	if r.leaseBlocks(m.B, r.env.Now()) {
		// A standing lease grant forbids promising this ballot: defer
		// silently. The preparer retries on its backoff; by then the
		// grant has expired — this is what makes the lease holder's
		// local reads safe across leader changes.
		return
	}
	if m.B > r.acc.promised {
		r.acc.promised = m.B
		// Durable before visible: once the PROMISE is out, this acceptor
		// may never again vote below m.B — not even after kill -9.
		r.cfg.Store.Promise(uint64(m.B))
		if m.B > r.prop.ballot {
			// A higher ballot exists: abdicate leader duties (and any
			// read lease that came with them) before promising.
			r.abdicateLeader()
		}
		r.env.Send(from, PromiseMsg{B: m.B, Entries: r.promiseEntries(m.FirstGap)})
	} else {
		r.env.Send(from, NackMsg{B: m.B, Promised: r.acc.promised})
	}
}

func (r *Node) onPromise(from node.ID, m PromiseMsg) {
	// Reported decisions are facts whatever the ballot: learn them even
	// from a promise that arrives too late to count.
	for _, e := range m.Entries {
		if e.Mark == PromDecided {
			r.learn(e.Inst, e.AccV)
		}
	}
	if !r.prop.preparing || m.B != r.prop.ballot {
		return
	}
	r.prop.promises[from] = m
	r.maybeFinishPrepare()
}

// maybeFinishPrepare completes phase 1 once a majority has promised. The
// decisions they report are already learned (onPromise); adopt the
// highest accepted value per remaining instance, re-propose those
// instances at the new ballot, and close unconstrained gaps with no-ops
// so the decided prefix can grow — all outside the range a capped promise
// left unreported.
func (r *Node) maybeFinishPrepare() {
	if !r.prop.preparing || len(r.prop.promises) < consensus.Majority(r.n) {
		return
	}
	best := make(map[int]acceptedEntry)
	hold, holdFrom := 0, node.None
	for from, p := range r.prop.promises {
		for _, e := range p.Entries {
			switch e.Mark {
			case PromDecided: // learned when the promise arrived
			case PromCapped:
				if e.Inst+1 > hold || (e.Inst+1 == hold && from < holdFrom) {
					hold, holdFrom = e.Inst+1, from
				}
			default:
				if cur, ok := best[e.Inst]; !ok || e.AccB > cur.b {
					best[e.Inst] = acceptedEntry{b: e.AccB, v: e.AccV}
				}
			}
		}
	}
	r.prop.preparing = false
	r.prop.prepared = true
	r.prop.holdTo = hold
	r.pipe.resetCommits(r.n, max(r.log.firstGap, hold))
	maxInst := r.log.highestDecided
	insts := make([]int, 0, len(best))
	for inst := range best {
		insts = append(insts, inst)
		if inst > maxInst {
			maxInst = inst
		}
	}
	sort.Ints(insts)
	r.pipe.nextInst = max(r.pipe.nextInst, maxInst+1, r.log.firstGap, hold)
	// Re-propose constrained instances at the new ballot. These bypass the
	// pipelining window: they block the decided prefix, so they must be
	// driven regardless of how much new work is in flight.
	for _, inst := range insts {
		if r.mayPropose(inst) {
			r.reopen(inst, best[inst].v)
		}
	}
	// Close unconstrained gaps below nextInst with no-ops so the log's
	// decided prefix can grow.
	for inst := r.log.firstGap; inst < r.pipe.nextInst; inst++ {
		if _, driving := r.pipe.inflights[inst]; !driving && r.mayPropose(inst) {
			r.reopen(inst, consensus.Noop)
		}
	}
	if r.holding() {
		r.prop.holdFrom = holdFrom
		r.prop.holdGap, r.prop.holdSince = r.log.firstGap, r.env.Now()
		r.env.Logf("rsm: ballot %v holds below %d until learned from p%d", r.prop.ballot, hold, holdFrom)
		r.askLearn()
	}
	r.cfg.Tracer.Mark(r.env.Now(), "prepared", -1)
	r.env.Logf("rsm: ballot %v prepared (%d constrained)", r.prop.ballot, len(insts))
	// A freshly prepared ballot may find commands already queued.
	r.pump()
}

// mayPropose reports whether phase 1 leaves instance inst open to a
// proposal: not decided, and not inside a capped promise's hold.
func (r *Node) mayPropose(inst int) bool {
	if _, decided := r.log.get(inst); decided {
		return false
	}
	return inst >= r.prop.holdTo
}

// holding reports whether a capped promise's range is still being caught
// up: below holdTo, this leader proposes nothing it has not learned.
func (r *Node) holding() bool { return r.prop.holdTo > r.log.firstGap }

// askLearn requests the next batch of decisions from the capped promiser.
func (r *Node) askLearn() {
	r.prop.holdAsk = r.log.firstGap + learnBatch
	r.env.Send(r.prop.holdFrom, LearnMsg{FirstGap: r.log.firstGap})
}

// catchUp is the drive tick's share of a hold: ask again (a reply may
// have been lost), or give the ballot up when the first gap has not moved
// for a RetryTimeout. The gap then sits on an instance holdFrom has not
// decided, and only a fresh phase 1 from the new first gap can tell
// whether anyone has.
func (r *Node) catchUp(now sim.Time) {
	if r.log.firstGap != r.prop.holdGap {
		r.prop.holdGap, r.prop.holdSince = r.log.firstGap, now
	} else if now.Sub(r.prop.holdSince) >= r.cfg.RetryTimeout {
		r.env.Logf("rsm: ballot %v catch-up stalled at %d; re-preparing", r.prop.ballot, r.log.firstGap)
		r.abdicateLeader()
		return
	}
	r.askLearn()
}

func (r *Node) onNack(m NackMsg) {
	if m.B != r.prop.ballot {
		return
	}
	if m.Promised > r.acc.promised {
		r.acc.promised = m.Promised
	}
	// The next drive tick re-prepares with a higher ballot if Omega
	// still says we lead.
	r.abdicateLeader()
}
