package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Live workloads run a real cluster — n processes, each a core Ω detector
// composed with an rsm replicated log journaling to its own durable.WAL —
// and drive it through the transport's client entry point (Inject), the
// way cmd/consload does.

const (
	clusterN = 5
	// valueBytes is the size of every written value.
	valueBytes = 64
	// keySpace is how many distinct keys the seeded writes and reads use.
	keySpace = 1024
	// A changed leader view re-sends a pending request at once, as
	// rsm.Node.Submit's re-forwarding does; an unanswered one is re-sent
	// after retryAfter (Submit's RetryTimeout, default 100ms), doubling
	// with each such re-send so that a stall does not multiply the
	// offered load.
	retryAfter = 100 * time.Millisecond
	// maxDoublings caps that backoff at 400 ms, so an operation is still
	// re-sent a few times before its deadline once the cluster recovers.
	maxDoublings = 2
	// retryBurst is the most operations one retry scan (every 2 ms)
	// re-sends, oldest first; the rest wait for the next scan. Re-sending
	// every pending operation at once after a stall overflows the entry
	// replica's 128-frame link queue to the leader, and the frames it
	// drops (client requests and the replica's own protocol messages
	// alike) keep the backlog from ever draining.
	retryBurst = 32
	// deadline is when an unanswered operation counts as failed. A failed
	// operation's latency is taken as the deadline, so it misses every
	// latency limit the benchmark uses.
	deadline = 2 * time.Second
	// setups is how many times a run builds its cluster; setup_s is the
	// median and the last build is the one measured.
	setups = 9
)

// pause waits d. The runtime's timers wake a goroutine up to a
// millisecond late on a machine whose poller sleeps in whole
// milliseconds, which would charge the generator's lateness to every
// operation; a nanosleep system call on a thread with the least timer
// slack (see preciseThread) wakes within about 10 µs. Long waits sleep on
// a timer up to the last millisecond.
func pause(d time.Duration) {
	if d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only loops once more
}

// preciseThread locks the calling goroutine to its OS thread and sets
// that thread's timer slack to 1 ns (Linux prctl PR_SET_TIMERSLACK), so
// pause wakes on time. The returned function unlocks the thread.
func preciseThread() (unlock func()) {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // on failure pause is only less precise
	return runtime.UnlockOSThread
}

// transportCluster is what the harness uses of a live transport; the TCP
// and in-memory clusters both provide it.
type transportCluster interface {
	Start()
	Stop()
	Inject(from, to node.ID, m node.Message)
	Stats() *metrics.MessageStats
	Crash(id node.ID)
}

// op is one client operation. Fields without atomics belong to the
// generator goroutine.
type op struct {
	due  int64 // ns on the run clock
	read bool
	key  int
	val  consensus.Value // writes only

	attempts   int
	timeouts   int   // re-sends for want of an answer
	first      int64 // first send: the operation's invocation
	lastSent   int64
	lastLeader node.ID

	sent  atomic.Int64 // last send, for the transport hop
	done  atomic.Int64 // completion on the run clock, 0 while pending
	entry atomic.Int32 // replica whose apply acknowledges a write
	index atomic.Int64 // applied index a read was served at
}

// latency is the operation's due-to-done time in ms, or the deadline when
// it never completed within it.
func (o *op) latency() (ms float64, ok bool) {
	d := o.done.Load()
	if d == 0 || d-o.due > int64(deadline) {
		return float64(deadline) / 1e6, false
	}
	return float64(d-o.due) / 1e6, true
}

// opValue encodes a write: its operation id and key, then seeded payload.
func opValue(id uint64, key int, rng *rand.Rand) consensus.Value {
	b := make([]byte, 0, valueBytes)
	b = fmt.Appendf(b, "%010d|%04d|", id, key)
	for len(b) < valueBytes {
		b = append(b, byte('a'+rng.Intn(26)))
	}
	return consensus.Value(b)
}

// opID recovers the operation id from a value; 0 for probes and no-ops.
func opID(v consensus.Value) uint64 {
	if len(v) < 11 || v[10] != '|' {
		return 0
	}
	id, err := strconv.ParseUint(string(v[:10]), 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// replica is one incarnation of one process.
type replica struct {
	id  node.ID
	det *core.Detector
	log *rsm.Node

	// Node-loop state, read only after the cluster stops.
	seq       []uint64 // operation id of every applied command, 0 for probes and no-ops
	instances int
	lastInst  int

	applied     atomic.Int64
	barriers    atomic.Int64 // settle's barrier commands applied
	catchTarget int64        // set before a restart; 0 for no catch-up watch
	caughtAt    atomic.Int64 // when applied first reached catchTarget
}

// liveSpec is one live workload's cluster.
type liveSpec struct {
	tcp   bool
	sync  durable.SyncPolicy
	lease time.Duration
}

// liveRun is one live workload run.
type liveRun struct {
	spec liveSpec
	clk  *clock
	seed int64 // the transport's delay randomness
	dir  string
	ops  []op
	rec  *recorder // nil untraced

	c    transportCluster
	mem  *transport.Cluster // failover only
	reps [][]*replica       // every incarnation per process
	down []bool             // generator-owned

	started int64   // when set-up of this cluster began, on the run clock
	client  node.ID // the replica clients enter through
	end     int     // operations past this index are never released

	layers *liveLayers // nil untraced
}

// liveLayers holds what the traced run gathers from the program's hooks.
type liveLayers struct {
	stacks   []*stack // one per process node loop
	gen      *stack   // the load generator's
	codec    *wire.Codec
	flushes  atomic.Int64
	frames   atomic.Int64
	flushB   atomic.Int64
	walBytes atomic.Int64

	// Per process, node-loop only.
	hops    [][]float64 // µs, Inject to the wrapped Deliver at the target
	commits [][]float64 // ms, Decision.Elapsed at the proposer
	selfAt  [][]int64   // when the process's Ω output named itself
	phase1  [][]float64 // ms, own Ω output to IsLeader
	isLead  []bool
	changes [][]leaderChange

	mu      sync.Mutex
	recover []float64 // ms, WAL recoveries on restart
}

type leaderChange struct {
	at     int64
	leader node.ID
}

// clock is the run's time base: every time the harness records is ns
// since the process started.
type clock struct{ t0 time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.t0)) }

// setup builds, starts and warms one cluster, traced when r.rec is set:
// leader agreed, a probe command applied at every replica and, with
// leases, the lease held. It returns how long that took.
func (r *liveRun) setup() (time.Duration, error) {
	start := time.Now()
	r.started = r.clk.now()
	dir, err := os.MkdirTemp("", "perfbench-wal-")
	if err != nil {
		return 0, err
	}
	r.dir = dir
	r.reps = make([][]*replica, clusterN)
	r.down = make([]bool, clusterN)
	if r.rec != nil {
		r.layers = &liveLayers{
			codec:   wire.NewCodec(),
			stacks:  make([]*stack, clusterN),
			gen:     r.rec.newStack(),
			hops:    make([][]float64, clusterN),
			commits: make([][]float64, clusterN),
			selfAt:  make([][]int64, clusterN),
			phase1:  make([][]float64, clusterN),
			isLead:  make([]bool, clusterN),
			changes: make([][]leaderChange, clusterN),
		}
		for i := range r.layers.stacks {
			r.layers.stacks[i] = r.rec.newStack()
		}
	}
	autos := make([]node.Automaton, clusterN)
	for i := range autos {
		if autos[i], err = r.buildReplica(node.ID(i), false); err != nil {
			return 0, err
		}
	}
	cfg := transport.Config{N: clusterN, Seed: r.seed, Quiet: true}
	if r.layers != nil {
		cfg.OnFlush = func(_, _ node.ID, frames, bytes int) {
			r.layers.flushes.Add(1)
			r.layers.frames.Add(int64(frames))
			r.layers.flushB.Add(int64(bytes))
		}
	}
	if r.spec.tcp {
		c, err := transport.NewTCPCluster(cfg, autos)
		if err != nil {
			return 0, err
		}
		r.c = c
	} else {
		c, err := transport.NewCluster(cfg, autos)
		if err != nil {
			return 0, err
		}
		r.c, r.mem = c, c
	}
	r.c.Start()
	if err := r.warm(); err != nil {
		r.teardown()
		return 0, err
	}
	return time.Since(start), nil
}

// warm waits for an agreed leader with a prepared ballot and, with
// leases on, for the leader to hold its lease.
func (r *liveRun) warm() error {
	bound := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(bound) {
			return fmt.Errorf("no leader served a probe command within 10s")
		}
		leader, ok := r.agreed()
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		r.client = (leader + 1) % clusterN
		all := true
		for i := range r.reps {
			if r.current(node.ID(i)).applied.Load() == 0 {
				all = false
			}
		}
		if all && (r.spec.lease == 0 || r.current(leader).log.LeaseHeld()) {
			return nil
		}
		r.c.Inject(r.client, leader, rsm.RequestMsg{V: "probe"})
		time.Sleep(2 * time.Millisecond)
	}
}

func (r *liveRun) teardown() {
	r.c.Stop()
	os.RemoveAll(r.dir)
}

func (r *liveRun) current(id node.ID) *replica { return r.reps[id][len(r.reps[id])-1] }

// agreed reports the leader every live process names, if they agree.
func (r *liveRun) agreed() (node.ID, bool) {
	leader := node.None
	for i := range r.reps {
		if r.down[i] {
			continue
		}
		l := r.current(node.ID(i)).det.History().Current()
		if l == node.None || (leader != node.None && l != leader) {
			return node.None, false
		}
		leader = l
	}
	return leader, leader != node.None && !r.down[leader]
}

// buildReplica builds process id's next incarnation, recovering whatever
// its WAL directory holds.
func (r *liveRun) buildReplica(id node.ID, restart bool) (node.Automaton, error) {
	opts := durable.Options{Sync: r.spec.sync}
	L := r.layers
	var st *stack
	if L != nil {
		st = L.stacks[id]
		opts.OnAppend = func(n int) { L.walBytes.Add(int64(n)) }
		opts.OnFsync = func(d time.Duration) { st.closed("durable.fsync", d) }
		if restart {
			opts.OnRecover = func(d time.Duration) {
				L.mu.Lock()
				L.recover = append(L.recover, float64(d)/1e6)
				L.mu.Unlock()
			}
		}
	}
	w, err := durable.Open(filepath.Join(r.dir, fmt.Sprintf("p%d", id)), opts)
	if err != nil {
		return nil, err
	}
	rep := &replica{id: id, lastInst: -1}
	var store durable.Store = w
	if L != nil {
		store = timedStore{Store: w, st: st}
	}
	rep.det = core.New(core.WithRebuff())
	rep.log = rsm.New(rep.det, rsm.Config{Lease: r.spec.lease, Store: store})
	rep.log.OnApply(func(inst, _ int, v consensus.Value) { r.onApply(rep, inst, v) })
	rep.log.OnReadReply(r.onReadReply)
	r.reps[id] = append(r.reps[id], rep)
	if L == nil {
		return node.Compose(rep.det, rep.log), nil
	}
	rep.log.Recorder().SetNotify(func(d consensus.Decision) {
		if d.Elapsed > 0 {
			L.commits[id] = append(L.commits[id], float64(d.Elapsed)/1e6)
		}
	})
	rep.det.History().AddNotify(func(_ sim.Time, leader node.ID) {
		now := r.clk.now()
		L.changes[id] = append(L.changes[id], leaderChange{now, leader})
		if leader == id {
			L.selfAt[id] = append(L.selfAt[id], now)
		}
	})
	det := newTimedAuto("core", rep.det, st, isCoreMsg, "core/")
	lg := newTimedAuto("rsm", rep.log, st, isRsmMsg, "rsm/")
	lg.opOf = func(m node.Message) uint64 {
		id := clientOp(m)
		if id != 0 && id <= uint64(len(r.ops)) {
			L.hops[rep.id] = append(L.hops[rep.id], float64(r.clk.now()-r.ops[id-1].sent.Load())/1e3)
		}
		return id
	}
	L.isLead[id] = false
	lg.after = func() {
		lead := rep.log.IsLeader()
		if lead && !L.isLead[id] {
			if s := L.selfAt[id]; len(s) > 0 {
				L.phase1[id] = append(L.phase1[id], float64(r.clk.now()-s[len(s)-1])/1e6)
			}
		}
		L.isLead[id] = lead
	}
	return node.Compose(det, lg), nil
}

func isCoreMsg(m node.Message) bool {
	switch m.(type) {
	case core.LeaderMsg, core.AccuseMsg, core.RebuffMsg:
		return true
	}
	return false
}

func isRsmMsg(m node.Message) bool { return !isCoreMsg(m) }

// clientOp is the operation a client request carries, 0 for protocol
// traffic.
func clientOp(m node.Message) uint64 {
	switch m := m.(type) {
	case rsm.RequestMsg:
		return opID(m.V)
	case rsm.ReadReqMsg:
		return m.Seq
	}
	return 0
}

// onApply is every replica's apply hook: it records the applied sequence
// for the output checks and acknowledges a write at the replica it
// entered through.
func (r *liveRun) onApply(rep *replica, inst int, v consensus.Value) {
	id := opID(v)
	rep.seq = append(rep.seq, id)
	if inst != rep.lastInst {
		rep.instances++
		rep.lastInst = inst
	}
	n := rep.applied.Add(1)
	if rep.catchTarget > 0 && n == rep.catchTarget {
		rep.caughtAt.Store(r.clk.now())
	}
	if v == barrier {
		rep.barriers.Add(1)
	}
	if id == 0 || id > uint64(len(r.ops)) {
		return
	}
	o := &r.ops[id-1]
	if node.ID(o.entry.Load()) == rep.id {
		o.done.CompareAndSwap(0, r.clk.now())
	}
}

// onReadReply completes a read at the client's replica.
func (r *liveRun) onReadReply(m rsm.ReadReplyMsg) {
	if m.Seq == 0 || m.Seq > uint64(len(r.ops)) {
		return
	}
	o := &r.ops[m.Seq-1]
	if o.done.Load() == 0 {
		o.index.Store(int64(m.Index))
		o.done.Store(r.clk.now())
	}
}

// send releases or re-sends one operation to the leader the client's
// replica currently names.
func (r *liveRun) send(id uint64, now int64) {
	o := &r.ops[id-1]
	if r.current(r.client).det.History().Current() == r.client {
		// Clients enter through a follower: an operation entering at
		// the leader would skip the hop the workloads measure, and the
		// run's cost would depend on where leadership happened to move.
		r.client = r.follower(r.client)
	}
	entry := r.client
	leader := r.current(entry).det.History().Current()
	o.lastSent, o.lastLeader = now, leader
	if o.attempts == 0 {
		o.first = now
	}
	o.attempts++
	if leader == node.None || r.down[leader] {
		return // no leader to send to: the view change re-sends it
	}
	from := entry
	if from == leader {
		from = r.follower(leader)
	}
	o.sent.Store(now)
	var msg node.Message
	if o.read {
		msg = rsm.ReadReqMsg{Seq: id, Count: 1, Origin: entry}
	} else {
		o.entry.Store(int32(entry))
		msg = rsm.RequestMsg{V: o.val}
	}
	if r.layers != nil {
		r.layers.gen.push("transport.inject", id)
		r.c.Inject(from, leader, msg)
		r.layers.gen.pop()
		return
	}
	r.c.Inject(from, leader, msg)
}

// follower returns the first live process after id.
func (r *liveRun) follower(id node.ID) node.ID {
	next := (id + 1) % clusterN
	for r.down[next] {
		next = (next + 1) % clusterN
	}
	return next
}

// drive runs the open loop until every operation is released and done
// or failed, calling tick (when set) on every wake-up. It returns the
// generator's lateness per operation, in µs.
func (r *liveRun) drive(tick func(now int64)) []float64 {
	defer preciseThread()()
	late := make([]float64, len(r.ops))
	next, lo := 0, 0
	var nextScan int64
	const scanEvery = int64(2 * time.Millisecond)
	for {
		now := r.clk.now()
		for next < r.end && r.ops[next].due <= now {
			r.send(uint64(next+1), now)
			late[next] = float64(now-r.ops[next].due) / 1e3
			next++
		}
		if now >= nextScan {
			lo = r.retry(lo, next, now)
			nextScan = now + scanEvery
		}
		if tick != nil {
			tick(now)
		}
		if next >= r.end && lo >= next {
			return late[:next]
		}
		wake := nextScan
		if next < r.end && r.ops[next].due < wake {
			wake = r.ops[next].due
		}
		if d := wake - r.clk.now(); d > 0 {
			pause(time.Duration(d))
		}
	}
}

// retry re-sends released operations that look lost and returns the new
// low-water mark: the first operation neither done nor past its deadline.
func (r *liveRun) retry(lo, next int, now int64) int {
	for lo < next && (r.ops[lo].done.Load() != 0 || now-r.ops[lo].due > int64(deadline)) {
		lo++
	}
	leader := r.current(r.client).det.History().Current()
	budget := retryBurst
	for i := lo; i < next && budget > 0; i++ {
		o := &r.ops[i]
		if o.done.Load() != 0 || now-o.due > int64(deadline) {
			continue
		}
		switch {
		case o.lastLeader != leader:
			r.send(uint64(i+1), now)
			budget--
		case now-o.lastSent >= int64(retryAfter)<<min(o.timeouts, maxDoublings):
			o.timeouts++
			r.send(uint64(i+1), now)
			budget--
		}
	}
	return lo
}

// settle brings the cluster to rest for the output checks: it writes a
// barrier command until every live replica has applied one and all have
// applied the same count. Without traffic a follower that missed a
// decision across a leader change is not told about it, so the barrier is
// what lets every acknowledged write reach every live replica.
func (r *liveRun) settle() {
	bound := time.Now().Add(5 * time.Second)
	var lastSent time.Time
	for time.Now().Before(bound) {
		var lo, hi int64 = -1, 0
		barriers := true
		for i := range r.reps {
			if r.down[i] {
				continue
			}
			rep := r.current(node.ID(i))
			a := rep.applied.Load()
			if lo < 0 || a < lo {
				lo = a
			}
			hi = max(hi, a)
			barriers = barriers && rep.barriers.Load() > 0
		}
		if barriers && lo == hi {
			return
		}
		if time.Since(lastSent) >= 50*time.Millisecond {
			if leader, ok := r.agreed(); ok {
				r.c.Inject(r.follower(leader), leader, rsm.RequestMsg{V: barrier})
				lastSent = time.Now()
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// barrier is the command settle writes.
const barrier consensus.Value = "barrier"

// rsmKinds are the consensus message kinds; Ω heartbeats are excluded
// from the per-operation message cost.
var rsmKinds = []string{
	rsm.KindRequest, rsm.KindPrepare, rsm.KindPromise, rsm.KindNack,
	rsm.KindAccept, rsm.KindAccepted, rsm.KindDecide, rsm.KindLearn,
	rsm.KindLeaseGrant, rsm.KindLeaseAck, rsm.KindReadReq, rsm.KindReadReply,
}

func kindTotal(s *metrics.MessageStats, kinds []string) uint64 {
	var t uint64
	for _, k := range kinds {
		t += s.KindCount(k)
	}
	return t
}

// trafficMark is a point-in-time reading of the cluster's counters.
type trafficMark struct {
	at                   int64
	cpu                  int64 // process CPU time, ns (cpuTime)
	rsm, sent, bytes     uint64
	dropped, hb, readMsg uint64
}

func (r *liveRun) mark() trafficMark {
	s := r.c.Stats()
	return trafficMark{
		at: r.clk.now(), cpu: cpuTime(), rsm: kindTotal(s, rsmKinds), sent: s.TotalSent(), bytes: s.WireBytes(),
		dropped: s.Dropped(), hb: s.KindCount(core.KindLeader),
		readMsg: kindTotal(s, []string{rsm.KindReadReq, rsm.KindReadReply, rsm.KindLeaseGrant, rsm.KindLeaseAck}),
	}
}

// cpuTime is the CPU time, user and system, that every thread of this
// process has used, in ns. Time the hypervisor steals from the machine is
// not charged to it.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
