package rsm

import (
	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/sim"
)

// This file is the storage layer: the decided log (learner state), the
// acceptor's per-instance promises, and the Done-vector bookkeeping that
// lets the cluster forget applied prefixes (Config.Forget).

// logbook is one replica's decided log. Entries live in a map so the log
// tolerates holes; firstGap tracks the contiguous decided prefix and low
// tracks the forgetting horizon — everything below low has been applied by
// every process and pruned.
type logbook struct {
	entries        map[int]consensus.Value
	firstGap       int
	highestDecided int
	low            int
}

func newLogbook() logbook {
	return logbook{entries: make(map[int]consensus.Value), highestDecided: -1}
}

func (l *logbook) get(inst int) (consensus.Value, bool) {
	v, ok := l.entries[inst]
	return v, ok
}

// insert stores a decision if the instance is new, advances the gap, and
// reports whether anything was installed.
func (l *logbook) insert(inst int, v consensus.Value) bool {
	if inst < l.low {
		return false // already forgotten: decided, applied and pruned
	}
	if _, ok := l.entries[inst]; ok {
		return false
	}
	l.entries[inst] = v
	if inst > l.highestDecided {
		l.highestDecided = inst
	}
	for {
		if _, ok := l.entries[l.firstGap]; !ok {
			break
		}
		l.firstGap++
	}
	return true
}

// forgetBelow prunes every entry below min. Only the applied prefix may
// go: the caller guarantees min ≤ firstGap (the Done vector's minimum
// includes this process's own applied count).
func (l *logbook) forgetBelow(min int) {
	if min > l.firstGap {
		min = l.firstGap
	}
	for inst := l.low; inst < min; inst++ {
		delete(l.entries, inst)
	}
	if min > l.low {
		l.low = min
	}
}

// retained reports how many decided entries the log currently holds — the
// bounded-memory metric the forgetting tests assert on.
func (l *logbook) retained() int { return len(l.entries) }

// acceptor is the synod acceptor state: the highest promised ballot and
// the accepted-but-not-yet-decided entries. Accepted entries for decided
// instances are dropped at learn time (dead weight for promises).
type acceptor struct {
	promised consensus.Ballot
	accepted map[int]acceptedEntry
	// lastAcceptAt is when this acceptor last took a phase-2 message;
	// gap-fill asks are suppressed while accepts keep flowing (the next
	// CommitUpTo will deliver the decisions more cheaply).
	lastAcceptAt sim.Time
}

type acceptedEntry struct {
	b consensus.Ballot
	v consensus.Value
}

// doneVector tracks, per process, how far it is known to have applied the
// log (its advertised first gap). The cluster minimum is the forgetting
// horizon: below it, every process has applied, so nothing will ever be
// re-read or re-proposed.
type doneVector struct {
	done []int
}

func newDoneVector(n int) doneVector { return doneVector{done: make([]int, n)} }

// observe records that process id has applied through count.
func (d *doneVector) observe(id node.ID, count int) {
	if int(id) < len(d.done) && count > d.done[id] {
		d.done[id] = count
	}
}

// min returns the cluster-wide applied-through minimum.
func (d *doneVector) min() int {
	if len(d.done) == 0 {
		return 0
	}
	m := d.done[0]
	for _, v := range d.done[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// learn installs a decision locally and lets the applier run the newly
// contiguous prefix. On the leader it also retires the instance from the
// pipeline and passes the decision on to the forwarders waiting for it.
func (r *Node) learn(inst int, v consensus.Value) {
	if !r.log.insert(inst, v) {
		return
	}
	r.cfg.Store.Decide(uint64(inst), string(v))
	delete(r.acc.accepted, inst) // acceptor state for decided instances is dead weight
	if fl, ok := r.pipe.inflights[inst]; ok {
		// Decided without our quorum — say, an acceptor answered our
		// ACCEPT with a DECIDE. Re-driving it would re-broadcast a value
		// for a decided instance for ever.
		delete(r.pipe.inflights, inst)
		r.cfg.Tracer.End(r.env.Now(), fl.tctx)
		if fl.v != v {
			// Our ballot proposed another value here, so a higher ballot
			// decided it. Abdicate before the next ACCEPT's CommitUpTo
			// could tell an acceptor holding our value that it is decided.
			r.abdicateLeader()
		}
	}
	if r.pipe.nextInst <= inst {
		r.pipe.nextInst = inst + 1
	}
	r.apply()
	if r.prop.prepared {
		r.tellForwarders()
		if r.holding() && r.log.firstGap >= r.prop.holdAsk {
			r.askLearn()
		}
	}
}

// onLearn serves a lagging follower's gap-fill request and folds its
// advertised progress into the Done vector.
func (r *Node) onLearn(from node.ID, m LearnMsg) {
	r.dones.observe(from, m.FirstGap)
	start := m.FirstGap
	if start < r.log.low {
		start = r.log.low
	}
	sent := 0
	for inst := start; inst <= r.log.highestDecided && sent < learnBatch; inst++ {
		if v, ok := r.log.get(inst); ok {
			r.env.Send(from, DecideMsg{Inst: inst, V: v})
			sent++
		}
	}
}

// maybeForget prunes the log below the Done vector's minimum. Leaders call
// it as the vector advances; followers call it with the MinDone horizon
// piggybacked on accepts.
func (r *Node) maybeForget(min int) {
	if !r.cfg.Forget || min <= r.log.low {
		return
	}
	r.log.forgetBelow(min)
}
