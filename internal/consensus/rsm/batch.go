package rsm

import (
	"encoding/binary"
	"strings"

	"repro/internal/consensus"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// This file is the batching layer: queued client commands and the
// envelope codec that packs many commands into one proposable value. A
// batch of k commands costs the same phase-2 traffic as a single command
// — 2(n−1) messages plus one DECIDE per forwarding replica — so
// throughput scales with Config.BatchMax while per-instance cost stays
// flat.

// batchPrefix marks an encoded batch envelope. Client commands are
// opaque; one that happens to start with the marker is wrapped in a
// (single-command) envelope so decoding stays unambiguous.
const batchPrefix = "\x00b"

// encodeBatch packs commands into one proposable value. A lone command
// without the marker prefix is proposed raw — the unbatched fast path
// keeps old logs, tests and tools readable.
func encodeBatch(cmds []consensus.Value) consensus.Value {
	if len(cmds) == 1 && !strings.HasPrefix(string(cmds[0]), batchPrefix) {
		return cmds[0]
	}
	size := len(batchPrefix) + binary.MaxVarintLen64
	for _, c := range cmds {
		size += binary.MaxVarintLen64 + len(c)
	}
	b := make([]byte, 0, size)
	b = append(b, batchPrefix...)
	b = binary.AppendUvarint(b, uint64(len(cmds)))
	for _, c := range cmds {
		b = binary.AppendUvarint(b, uint64(len(c)))
		b = append(b, c...)
	}
	return consensus.Value(b)
}

// decodeBatch unpacks an envelope into its commands. A value without the
// marker is a single raw command. A malformed envelope (impossible from
// encodeBatch) decodes as itself, so a corrupt value can at worst apply
// as one odd command rather than derail the applier.
func decodeBatch(v consensus.Value) []consensus.Value {
	s := string(v)
	if !strings.HasPrefix(s, batchPrefix) {
		return []consensus.Value{v}
	}
	rest := s[len(batchPrefix):]
	count, n := binary.Uvarint([]byte(rest))
	if n <= 0 {
		return []consensus.Value{v}
	}
	rest = rest[n:]
	out := make([]consensus.Value, 0, count)
	for i := uint64(0); i < count; i++ {
		size, n := binary.Uvarint([]byte(rest))
		if n <= 0 || uint64(len(rest)-n) < size {
			return []consensus.Value{v}
		}
		out = append(out, consensus.Value(rest[n:n+int(size)]))
		rest = rest[n+int(size):]
	}
	return out
}

// pendingCmd is one locally submitted command not yet applied anywhere
// this replica knows of.
type pendingCmd struct {
	v consensus.Value
	// enq is when this replica queued the command — the start of the
	// per-command latency the applier stamps on Decisions.
	enq        sim.Time
	lastSentTo node.ID
	lastSentAt sim.Time
	// tctx is the command's trace context (zero when unsampled), carried
	// from ingress through forwarding, batching and apply.
	tctx tracing.Context
	// origin is the replica the command came from: this one for a local
	// Submit, the forwarder for a RequestMsg. The leader owes the
	// forwarder the decision of the instance the command rides in.
	origin node.ID
}

// batcher is the client-command queue. On a leader, commands wait here
// until pump packs them into batches; on a follower they are forwarded
// (and re-forwarded) to the believed leader until seen applied.
type batcher struct {
	pending []*pendingCmd
	// origins is scratch space: the origins of the last batch take
	// returned, reused between calls.
	origins []node.ID
}

// add queues a command that came from origin.
func (b *batcher) add(v consensus.Value, now sim.Time, tctx tracing.Context, origin node.ID) {
	b.pending = append(b.pending, &pendingCmd{v: v, enq: now, lastSentTo: node.None, tctx: tctx, origin: origin})
}

// release makes every command assigned by leader me takeable again — the
// instances carrying them were abandoned.
func (b *batcher) release(me node.ID) {
	for _, p := range b.pending {
		if p.lastSentTo == me {
			p.lastSentTo = node.None
		}
	}
}

// take collects up to max commands not yet assigned by leader me,
// marking them assigned, and leaves their origins in b.origins. A partial
// batch is only taken when allowPartial — the caller allows it when the
// pipeline is empty (nothing to overlap with, so waiting buys nothing) or
// on the drive tick (bounding queue latency at one tick).
func (b *batcher) take(me node.ID, max int, allowPartial bool, now sim.Time) ([]consensus.Value, []sim.Time, []tracing.Context) {
	var picked []*pendingCmd
	for _, p := range b.pending {
		if p.lastSentTo == me {
			continue // already riding in an instance
		}
		picked = append(picked, p)
		if len(picked) == max {
			break
		}
	}
	if len(picked) == 0 || (len(picked) < max && !allowPartial) {
		return nil, nil, nil
	}
	cmds := make([]consensus.Value, len(picked))
	enqs := make([]sim.Time, len(picked))
	var tctxs []tracing.Context // allocated only when a picked command is traced
	b.origins = b.origins[:0]
	for i, p := range picked {
		p.lastSentTo = me
		p.lastSentAt = now
		b.origins = append(b.origins, p.origin)
		cmds[i] = p.v
		enqs[i] = p.enq
		if p.tctx.Valid() {
			if tctxs == nil {
				tctxs = make([]tracing.Context, len(picked))
			}
			tctxs[i] = p.tctx
		}
	}
	return cmds, enqs, tctxs
}

// retire drops the first pending command matching an applied value.
func (b *batcher) retire(v consensus.Value) {
	for i, p := range b.pending {
		if p.v == v {
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			return
		}
	}
}

// pump packs queued commands into batches and feeds the pipeline while
// the window has room. Policy: a full batch goes immediately; a partial
// batch goes only when nothing is in flight (force=false) or on the
// drive tick (force=true), so bursts coalesce but queue latency stays
// bounded by one DriveInterval.
func (r *Node) pump() { r.pumpBatches(false) }

func (r *Node) pumpBatches(force bool) {
	if !r.prop.prepared {
		return
	}
	for r.pipe.hasRoom(r.cfg.Window) {
		allowPartial := force || len(r.pipe.inflights) == 0
		now := r.env.Now()
		cmds, enqs, tctxs := r.bat.take(r.me, r.cfg.BatchMax, allowPartial, now)
		if len(cmds) == 0 {
			return
		}
		for i, ctx := range tctxs {
			// Stage one of a traced command's life: the queue wait,
			// enqueue to batch formation.
			r.cfg.Tracer.Record(enqs[i], now, ctx, "queue", -1, "")
		}
		for _, f := range r.bat.origins {
			if f != r.me {
				r.pipe.noteForwarder(f, r.pipe.nextInst) // propose opens nextInst
			}
		}
		r.propose(encodeBatch(cmds), enqs, tctxs)
	}
}

// forwardPending sends unserved local commands to the believed leader.
func (r *Node) forwardPending(leader node.ID) {
	if leader == node.None || leader == r.me {
		return
	}
	now := r.env.Now()
	for _, p := range r.bat.pending {
		if p.lastSentTo == leader && now.Sub(p.lastSentAt) <= r.cfg.RetryTimeout {
			continue
		}
		p.lastSentTo = leader
		p.lastSentAt = now
		r.env.Send(leader, r.traced(p.tctx, RequestMsg{V: p.v}))
	}
}

// DecodeBatch unpacks a decided value into its constituent commands —
// the offline counterpart of the applier's fan-out, for tools replaying
// recovered logs (cmd/chaossoak's replay-equivalence check). A value
// without the batch marker is one raw command.
func DecodeBatch(v consensus.Value) []consensus.Value { return decodeBatch(v) }

// BatchRequest packs several client commands into one request message;
// the serving leader unpacks the envelope into individual pending
// commands. Clients with their own queues use this to amortize the
// request hop the same way the leader amortizes phase 2.
func BatchRequest(cmds []consensus.Value) RequestMsg {
	return RequestMsg{V: encodeBatch(cmds)}
}

func (r *Node) onRequest(from node.ID, m RequestMsg) {
	if !r.prop.prepared || r.omega.Leader() != r.me {
		return // the client will re-forward to the real leader
	}
	now := r.env.Now()
	// A traced request (wrapped by the client or a forwarding replica)
	// hands its context to every command it carries; the sampling
	// decision stays with the trace originator.
	for _, v := range decodeBatch(m.V) {
		r.bat.add(v, now, r.curCtx, from)
	}
	r.pump()
}
