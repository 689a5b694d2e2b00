package rsm

import (
	"sort"
	"time"

	"repro/internal/consensus"
	"repro/internal/durable"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// This file is the applier layer: it walks the contiguous decided prefix
// in order, unpacks batch envelopes, and fans out one Decision per
// command. Latency is per command, enqueue-to-apply: the proposing leader
// remembers when each command entered its queue and stamps the difference
// at apply time; everywhere else Elapsed is zero ("unknown").

// proposal remembers what the leader proposed in an instance and when
// each command in it was enqueued.
type proposal struct {
	env consensus.Value
	enq []sim.Time
	// reqs are the per-command trace contexts (nil when no command in
	// the batch is traced) and decidedAt the quorum-completion instant,
	// so apply can record the final stage span under each trace.
	reqs      []tracing.Context
	decidedAt sim.Time
}

// applier tracks apply progress and decision fan-out.
type applier struct {
	next    int // next instance to apply; always firstGap after apply()
	count   int // commands applied, noops included
	onApply func(inst, cmd int, v consensus.Value)
	props   map[int]proposal
}

func newApplier() applier { return applier{props: make(map[int]proposal)} }

// track remembers a proposal for latency stamping at apply time.
func (a *applier) track(inst int, env consensus.Value, enq []sim.Time, reqs []tracing.Context) {
	a.props[inst] = proposal{env: env, enq: enq, reqs: reqs}
}

// apply runs the applier over every newly contiguous decided instance:
// decode, fan out per-command Decisions, retire matching pending
// commands, and advance the Done vector's own entry.
func (r *Node) apply() {
	now := r.env.Now()
	for {
		v, ok := r.log.get(r.app.next)
		if !ok {
			break
		}
		inst := r.app.next
		r.app.next++
		prop, tracked := r.app.props[inst]
		if tracked {
			delete(r.app.props, inst)
			if prop.env != v {
				tracked = false // our proposal lost this instance
			}
		}
		for k, cmd := range decodeBatch(v) {
			var elapsed time.Duration
			if tracked && k < len(prop.enq) {
				elapsed = now.Sub(prop.enq[k])
			}
			if tracked && k < len(prop.reqs) && prop.reqs[k].Valid() {
				// Stage three, closing the trace: decide to apply. An
				// instance decided without our own quorum (learned via
				// DecideMsg) has no decidedAt; its apply span is a point.
				start := prop.decidedAt
				if start == 0 {
					start = now
				}
				r.cfg.Tracer.Record(start, now, prop.reqs[k], "apply", -1, "")
			}
			r.rec.Record(consensus.Decision{
				Instance: inst, Cmd: k, Value: cmd,
				At: now, By: r.me, Elapsed: elapsed,
			})
			if r.app.onApply != nil {
				r.app.onApply(inst, k, cmd)
			}
			r.app.count++
			r.bat.retire(cmd)
		}
	}
	r.dones.observe(r.me, r.log.firstGap)
	if r.cfg.Forget && r.prop.prepared {
		r.maybeForget(r.dones.min())
	}
	r.completeFallbackReads()
	r.maybeSnapshot()
}

// maybeSnapshot checkpoints the durable store once SnapshotEvery
// commands have been applied since the last checkpoint. The snapshot
// absorbs the contiguous applied prefix (below firstGap) into the App
// payload; entries at or above it — decided-but-unapplied islands and
// open acceptor votes — ride along explicitly. In-memory forgetting is
// untouched: logbook.retained() stays governed by the Done vector, the
// snapshot only moves the *durable* horizon.
func (r *Node) maybeSnapshot() {
	if r.cfg.SnapshotEvery <= 0 || r.app.count-r.snapBase < r.cfg.SnapshotEvery {
		return
	}
	if r.prop.prepared {
		r.tellFollowers()
	}
	st := &durable.State{
		Promised:  uint64(r.acc.promised),
		Ballot:    uint64(r.prop.ballot),
		SnapIndex: uint64(r.log.firstGap),
		SnapCount: uint64(r.app.count),
	}
	if r.cfg.SnapshotState != nil {
		st.App = r.cfg.SnapshotState()
	}
	for inst, v := range r.log.entries {
		if inst >= r.log.firstGap {
			st.Decided = append(st.Decided, durable.DecidedRec{Inst: uint64(inst), V: string(v)})
		}
	}
	sort.Slice(st.Decided, func(i, j int) bool { return st.Decided[i].Inst < st.Decided[j].Inst })
	for inst, e := range r.acc.accepted {
		st.Accepted = append(st.Accepted, durable.AcceptedRec{Inst: uint64(inst), B: uint64(e.b), V: string(e.v)})
	}
	sort.Slice(st.Accepted, func(i, j int) bool { return st.Accepted[i].Inst < st.Accepted[j].Inst })
	if err := r.cfg.Store.Snapshot(st); err != nil {
		// Nothing is lost on a failed checkpoint — the WAL keeps every
		// record — it just cannot compact yet. Retry at the next batch.
		r.env.Logf("rsm: snapshot at %d failed: %v", r.log.firstGap, err)
		return
	}
	r.snapBase = r.app.count
}
