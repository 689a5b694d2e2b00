package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/consensus"
	"repro/internal/durable"
	"repro/internal/node"
)

// Run conditions fixed for this commit. They are recorded in README.md
// next to the numbers they produced.
const (
	// writeRate is kv-write's fixed offered rate (README.md relates it to
	// the cluster's capacity).
	writeRate = 2000.0
	// warmup is load released before the kv workloads' measured window
	// opens: the ramp from an idle cluster stalls once, and that stall is
	// a start-up cost, not the steady state.
	warmup = time.Second
	// readMostlyRate is kv-read-mostly's fixed offered rate, readShare of
	// it reads.
	readMostlyRate = 5000.0
	readShare      = 0.9
	readLease      = 300 * time.Millisecond
	// failoverRate is failover's fixed offered write rate; the leader is
	// killed from killFirst on, each kill killEvery (± killJitter, seeded)
	// after the last one and once the cluster serves again, and restarted
	// from its WAL after downtime.
	failoverRate = 200.0
	killFirst    = time.Second
	killEvery    = 500 * time.Millisecond
	killJitter   = 100 * time.Millisecond
	downtime     = 200 * time.Millisecond
	// minKills is the fewest kills a failover run must make, so the
	// median of its unavailability has ten samples beyond it.
	minKills = 20
)

// seeded returns the generator for one kind of input, so adding draws to
// one kind never shifts another's.
func seeded(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

const (
	streamArrivals = iota + 1
	streamKeys
	streamKills
	streamTransport
	streamSchedules
)

// makeOps turns due times into operations: seeded keys and values, and
// reads with probability readP.
func makeOps(due []time.Duration, readP float64, seed int64) []op {
	rng := seeded(seed, streamKeys)
	ops := make([]op, len(due))
	for i, d := range due {
		o := &ops[i]
		o.due = int64(d)
		o.key = rng.Intn(keySpace)
		o.read = readP > 0 && rng.Float64() < readP
		if !o.read {
			o.val = opValue(uint64(i+1), o.key, rng)
		}
		o.lastLeader = node.None
	}
	return ops
}

// liveResult gathers what every live workload reports.
type liveResult struct {
	res     *result
	r       *liveRun
	setup   []float64
	late    []float64
	t0, t1  trafficMark // counters at the start and end of the measured window
	served  int         // operations completed within their deadline in that window
	windowS float64     // its length, over which the operations in it were due
	// servedAll counts every operation served, warm-up included, for the
	// per-layer metrics.
	servedAll int
	// cuts split the measured window for cpu_us_per_op and msgs_per_op;
	// keep selects the operations they count.
	cuts []cut
	keep func(*op) bool
}

// startLive builds the cluster setups times, keeping the last one. The
// last build is traced when the run is. The operations are installed
// before the cluster starts, so the apply hooks never see the slice
// change; their due times, offsets until now, are then moved onto the
// run clock just past the end of set-up, which is returned.
func startLive(spec liveSpec, seed int64, traced bool, clk *clock, ops []op) (*liveRun, []float64, int64, error) {
	var times []float64
	var r *liveRun
	for i := 0; i < setups; i++ {
		r = &liveRun{spec: spec, clk: clk, seed: seeded(seed, streamTransport).Int63(), ops: ops, end: len(ops)}
		last := i == setups-1
		if last && traced {
			r.rec = &recorder{t0: clk.t0, sampleMsgs: true}
		}
		d, err := r.setup()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, d.Seconds())
		if !last {
			r.teardown()
		}
	}
	base := clk.now() + int64(20*time.Millisecond)
	for i := range ops {
		ops[i].due += base
	}
	return r, times, base, nil
}

// latencies returns the latencies in ms of the operations selected by
// keep, failed ones at the deadline, and the same as (due ms, latency ms)
// points for windowTail.
func latencies(ops []op, keep func(*op) bool) (lat []float64, pts [][2]float64) {
	for i := range ops {
		o := &ops[i]
		if !keep(o) {
			continue
		}
		ms, _ := o.latency()
		lat = append(lat, ms)
		pts = append(pts, [2]float64{float64(o.due) / 1e6, ms})
	}
	return lat, pts
}

// tailWindow is the window the kv workloads' p99_ms is taken over.
const tailWindow = 250.0 // ms

func isWrite(o *op) bool { return !o.read }

// runKVWrite is the write-path workload: TCP loopback, group-commit WAL,
// writes at a fixed rate.
func runKVWrite(seed int64, seconds float64, traced bool, clk *clock) (*result, error) {
	return runKV(seed, seconds, traced, clk, liveSpec{tcp: true, sync: durable.SyncGroup}, writeRate, 0)
}

// runKVReadMostly is the lease-read workload: 90% single reads, 10%
// writes, at one fixed offered rate.
func runKVReadMostly(seed int64, seconds float64, traced bool, clk *clock) (*result, error) {
	return runKV(seed, seconds, traced, clk, liveSpec{tcp: true, sync: durable.SyncGroup, lease: readLease}, readMostlyRate, readShare)
}

// runKV drives a kv workload at a fixed offered rate, readP of it reads,
// for a warm-up and then the measured seconds.
func runKV(seed int64, seconds float64, traced bool, clk *clock, spec liveSpec, rate, readP float64) (*result, error) {
	due := arrivals(seeded(seed, streamArrivals), rate, 0, warmup+time.Duration(seconds*float64(time.Second)))
	r, setupTimes, base, err := startLive(spec, seed, traced, clk, makeOps(due, readP, seed))
	if err != nil {
		return nil, err
	}
	measured := base + int64(warmup)
	w := marks{from: measured, to: measured + int64(seconds*float64(time.Second))}
	late := r.drive(func(now int64) { w.tick(r, now) })
	w.close(r)
	r.settle()
	res := &result{}
	inWindow := func(o *op) bool { return o.due >= measured }
	lr := &liveResult{res: res, r: r, setup: setupTimes, late: late, t0: w.t0, t1: w.t1, windowS: seconds, cuts: w.cuts, keep: inWindow}
	lr.served = countServed(r.ops, inWindow)
	wlat, wpts := latencies(r.ops, func(o *op) bool { return !o.read && inWindow(o) })
	wp50 := median(append([]float64(nil), wlat...))
	res.notef("write_p50_ms %.3f ms (n=%d, %.0f ops/s offered)", wp50, len(wlat), rate)
	tailNotes(res, "write", wlat, wpts)
	if readP > 0 {
		rlat, rpts := latencies(r.ops, func(o *op) bool { return o.read && inWindow(o) })
		res.notef("read_p50_ms %.3f ms (n=%d)", median(append([]float64(nil), rlat...)), len(rlat))
		tailNotes(res, "read", rlat, rpts)
	}
	lr.finish()
	return res, nil
}

// marks reads the cluster's counters when the measured window opens at
// from and when it closes at to, the last due time in it. The drain that
// follows (operations still open at to, up to their deadline) is outside
// the window, so a straggler does not stretch it. In between it reads the
// process CPU time and the consensus message count every costWindow.
type marks struct {
	from, to int64
	t0, t1   trafficMark
	cuts     []cut
}

// cut is a reading of the process CPU time and the consensus messages
// sent.
type cut struct {
	at, cpu int64
	rsm     uint64
}

// costWindow is the length of the windows cpu_us_per_op and msgs_per_op
// are the medians over: a stretch in which other tenants slow the
// machine, or one costly election, moves a few windows, not the figure.
const costWindow = int64(time.Second)

// tick is called on every wake-up of drive.
func (m *marks) tick(r *liveRun, now int64) {
	if m.t0.at == 0 && now >= m.from {
		m.t0 = r.mark()
	}
	if m.t1.at == 0 && now >= m.to {
		m.t1 = r.mark()
	}
	if now >= m.from && now < m.to+costWindow && now >= m.from+int64(len(m.cuts))*costWindow {
		m.cuts = append(m.cuts, cut{now, cpuTime(), kindTotal(r.c.Stats(), rsmKinds)})
	}
}

// close is called once drive has returned. If it returned before the
// window closed, every operation was done and none was still due, so the
// counters are read now.
func (m *marks) close(r *liveRun) {
	if m.t1.at == 0 {
		m.t1 = r.mark()
	}
}

// tailNotes prints a kv workload's p99 over the whole measured window,
// failed operations at the deadline, and as a diagnostic the median over
// tailWindow windows of each window's p99 where the windows hold enough
// samples for one: a stall moves the first, not the second.
func tailNotes(res *result, kind string, lat []float64, pts [][2]float64) {
	whole := percentile(lat, 0.99)
	res.notef("%s_p99_ms %.3f ms (p%.2f, n=%d)", kind, whole.Value, 100*whole.Q, whole.N)
	if w := windowTail(pts, tailWindow, 0.99); w.N > 0 {
		res.notef("%s_p99_windowed_ms %.3f ms (median of %.0f ms windows' p99, n=%d)", kind, w.Value, tailWindow, w.N)
	}
}

func countServed(ops []op, keep func(*op) bool) int {
	n := 0
	for i := range ops {
		if keep(&ops[i]) {
			if _, ok := ops[i].latency(); ok {
				n++
			}
		}
	}
	return n
}

// runFailover is the fault workload: in-memory transport with its
// injected 0–2 ms delay, fsync-always WALs, writes at a low fixed rate,
// and the agreed leader killed and later restarted from its WAL over and
// over while the load keeps running.
func runFailover(seed int64, seconds float64, traced bool, clk *clock) (*result, error) {
	total := time.Duration(seconds * float64(time.Second))
	due := arrivals(seeded(seed, streamArrivals), failoverRate, 0, total)
	spec := liveSpec{sync: durable.SyncAlways}
	r, setupTimes, base, err := startLive(spec, seed, traced, clk, makeOps(due, 0, seed))
	if err != nil {
		return nil, err
	}

	// The gaps between kills are seeded; the victim is whoever the live
	// processes agree leads when the gap has passed. One fault at a time:
	// a kill also waits until the first write due after the last kill has
	// completed (or failed), so it never lands on a leader still taking
	// over from the last one. A fresh incarnation's Ω output may name the
	// leader before it has heard from anyone, so agreement alone does not
	// show that the cluster has recovered.
	krng := seeded(seed, streamKills)
	var kills, restarts []event
	gap := func() int64 {
		return int64(killEvery + time.Duration((krng.Float64()*2-1)*float64(killJitter)))
	}
	nextKill := base + int64(killFirst) - int64(killEvery) + gap()
	lastKill := base + int64(total-downtime-killEvery/2) // no kill after it
	recovered := func() bool {
		if len(kills) == 0 {
			return true
		}
		at := kills[len(kills)-1].at
		i := sort.Search(len(r.ops), func(i int) bool { return r.ops[i].due > at })
		if i >= r.end {
			return true
		}
		o := &r.ops[i]
		return o.done.Load() != 0 || r.clk.now()-o.due > int64(deadline)
	}
	pending := -1 // index in kills of the process awaiting restart
	var buildErr error
	restart := func() {
		id := kills[pending].id
		pending = -1
		auto, err := r.buildReplica(id, true)
		if err != nil {
			buildErr = err
			return
		}
		rep := r.current(id)
		rep.catchTarget = r.maxApplied()
		at := r.clk.now()
		r.mem.Restart(id, auto)
		r.down[id] = false
		restarts = append(restarts, event{id: id, at: at, target: rep.catchTarget, rep: rep})
	}
	w := marks{from: base, to: base + int64(total)}
	late := r.drive(func(now int64) {
		w.tick(r, now)
		if pending >= 0 && now >= kills[pending].at+int64(downtime) {
			restart()
		}
		if pending < 0 && buildErr == nil && now >= nextKill && now < lastKill && recovered() {
			leader, ok := r.agreed()
			if !ok {
				return
			}
			nextKill = now + gap()
			r.c.Crash(leader)
			r.down[leader] = true
			if leader == r.client {
				r.client = r.follower(leader)
			}
			kills = append(kills, event{id: leader, at: r.clk.now()})
			pending = len(kills) - 1
		}
	})
	w.close(r)
	if pending >= 0 { // the load ended while the last victim was down
		time.Sleep(time.Duration(kills[pending].at + int64(downtime) - r.clk.now()))
		restart()
	}
	if buildErr != nil {
		return nil, fmt.Errorf("restart: %w", buildErr)
	}
	r.settle()
	res := &result{}
	lr := &liveResult{res: res, r: r, setup: setupTimes, late: late, t0: w.t0, t1: w.t1, windowS: seconds, cuts: w.cuts, keep: isWrite}
	lr.served = countServed(r.ops, isWrite)
	lat, _ := latencies(r.ops, isWrite)
	p50, p99 := percentile(append([]float64(nil), lat...), 0.5), percentile(lat, 0.99)

	var unavail, catchup []float64
	for _, k := range kills {
		i := sort.Search(len(r.ops), func(i int) bool { return r.ops[i].due > k.at })
		if i < len(r.ops) {
			o := &r.ops[i]
			ms, _ := o.latency()
			unavail = append(unavail, float64(o.due-k.at)/1e6+ms)
		}
	}
	for _, s := range restarts {
		if c := s.rep.caughtAt.Load(); c != 0 {
			catchup = append(catchup, float64(c-s.at)/1e6)
		} else {
			res.failf("restarted p%d never caught up to %d applied commands", s.id, s.target)
		}
	}
	if len(kills) < minKills {
		res.failf("%d kills made, want at least %d", len(kills), minKills)
	}
	res.notef("kills %d, restarts %d (a kill waits for the gap, a served write and an agreed leader)", len(kills), len(restarts))
	res.notef("write_p50_ms %.3f ms (n=%d)", p50.Value, p50.N)
	res.notef("write_p99_ms %.3f ms (p%.2f, n=%d)", p99.Value, 100*p99.Q, p99.N)
	u, c := percentile(unavail, 0.5), percentile(catchup, 0.5)
	res.notef("unavail_p50_ms %.3f ms (n=%d)", u.Value, u.N)
	res.notef("catchup_p50_ms %.3f ms (n=%d)", c.Value, c.N)
	lr.finish()
	res.layer["recovery.unavail_p50_ms"] = u.Value
	res.layer["recovery.catchup_p50_ms"] = c.Value
	if r.layers != nil {
		res.layer["core.detect_ms"] = median(r.detectTimes(kills))
	}
	return res, nil
}

// event is one kill or restart.
type event struct {
	id     node.ID
	at     int64
	target int64
	rep    *replica
}

// maxApplied is the highest applied count among live processes: the
// leader's.
func (r *liveRun) maxApplied() int64 {
	var m int64
	for i := range r.reps {
		if !r.down[i] {
			if a := r.current(node.ID(i)).applied.Load(); a > m {
				m = a
			}
		}
	}
	return m
}

// finish stops the cluster, runs the output checks and fills in every
// metric common to the live workloads.
func (lr *liveResult) finish() {
	r, res := lr.r, lr.res
	res.attempted = len(lr.late)
	lr.servedAll = countServed(r.ops[:len(lr.late)], func(*op) bool { return true })
	for i := range r.ops[:len(lr.late)] {
		if _, ok := r.ops[i].latency(); !ok {
			res.failed++
		}
	}
	if res.failed > 0 {
		res.notes = append(res.notes, failedNote(r.ops[:len(lr.late)]))
	}
	r.teardown()
	r.check(res)
	cpuPerOp, msgsPerOp := lr.windowCosts()
	res.e2e = map[string]float64{
		"setup_s":       median(lr.setup),
		"ops_per_s":     float64(lr.served) / lr.windowS,
		"msgs_per_op":   median(msgsPerOp),
		"cpu_us_per_op": median(cpuPerOp),
	}
	res.notef("msgs_per_op %.3f (median of %d windows' consensus-kind messages ÷ operations served; whole window %.3f, %d operations served)",
		res.e2e["msgs_per_op"], len(msgsPerOp), float64(lr.t1.rsm-lr.t0.rsm)/math.Max(1, float64(lr.served)), lr.served)
	res.notef("cpu_us_per_op %.2f µs (median of %d windows' process CPU ÷ operations served; whole window %.2f µs, %.1f%% of the machine)",
		res.e2e["cpu_us_per_op"], len(cpuPerOp), float64(lr.t1.cpu-lr.t0.cpu)/1e3/math.Max(1, float64(lr.served)),
		100*float64(lr.t1.cpu-lr.t0.cpu)/float64(lr.t1.at-lr.t0.at)/float64(runtime.NumCPU()))
	lateQ := percentile(lr.late, 0.99)
	res.notef("generator lateness p99 %.1f µs, p50 %.1f µs (n=%d)", lateQ.Value, median(append([]float64(nil), lr.late...)), lateQ.N)
	res.layer = lr.layers()
	res.rec = r.rec
}

// failedNote describes the operations that missed their deadline.
func failedNote(ops []op) string {
	var reads, writes, unsent, answered int
	var first, last int64 = -1, 0
	attempts := map[int]int{}
	leaders := map[node.ID]int{}
	entries := map[int32]int{}
	for i := range ops {
		o := &ops[i]
		if _, ok := o.latency(); ok {
			continue
		}
		if o.read {
			reads++
		} else {
			writes++
		}
		if o.sent.Load() == 0 {
			unsent++
		}
		if o.done.Load() != 0 {
			answered++
		}
		if first < 0 {
			first = o.due
		}
		last = o.due
		attempts[o.attempts]++
		leaders[o.lastLeader]++
		if !o.read {
			entries[o.entry.Load()]++
		}
	}
	return fmt.Sprintf("failed operations: %d reads, %d writes, due from %.1f s to %.1f s, %d never sent, %d answered late, by attempts %v, by last leader %v, writes by entry replica %v",
		reads, writes, float64(first)/1e9, float64(last)/1e9, unsent, answered, attempts, leaders, entries)
}

// windowCosts returns, for each window between consecutive cuts, the
// process CPU time in µs and the consensus messages per operation served
// among those due in it.
func (lr *liveResult) windowCosts() (cpu, msgs []float64) {
	ops := lr.r.ops[:len(lr.late)]
	lo := 0
	for k := 1; k < len(lr.cuts); k++ {
		a, b := lr.cuts[k-1], lr.cuts[k]
		for lo < len(ops) && ops[lo].due < a.at {
			lo++
		}
		served := 0
		for i := lo; i < len(ops) && ops[i].due < b.at; i++ {
			if o := &ops[i]; lr.keep(o) {
				if _, ok := o.latency(); ok {
					served++
				}
			}
		}
		if served > 0 {
			cpu = append(cpu, float64(b.cpu-a.cpu)/1e3/float64(served))
			msgs = append(msgs, float64(b.rsm-a.rsm)/float64(served))
		}
	}
	return cpu, msgs
}

// check runs the output checks on the stopped cluster: consensus safety
// across every incarnation, every acknowledged write applied on every
// live replica, prefix-consistent applied sequences, and reads no older
// than the writes acknowledged before them.
func (r *liveRun) check(res *result) {
	var recs []*consensus.Recorder
	var seqs [][]uint64
	for _, incs := range r.reps {
		for _, rep := range incs {
			recs = append(recs, rep.log.Recorder())
			seqs = append(seqs, rep.seq)
		}
	}
	if rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs}); !rep.Holds() {
		res.failf("consensus safety: %v", rep.Violations)
	}
	longest := seqs[0]
	for _, s := range seqs {
		if len(s) > len(longest) {
			longest = s
		}
	}
	for i, s := range seqs {
		for j := range s {
			if s[j] != longest[j] {
				res.failf("applied sequence %d diverges at position %d", i, j)
				break
			}
		}
	}
	// First position of every operation in the log.
	pos := make(map[uint64]int, len(longest))
	for p, id := range longest {
		if _, ok := pos[id]; !ok && id != 0 {
			pos[id] = p
		}
	}
	for id := range r.reps {
		rep := r.current(node.ID(id))
		applied := make(map[uint64]bool, len(rep.seq))
		for _, x := range rep.seq {
			applied[x] = true
		}
		for i := range r.ops {
			o := &r.ops[i]
			if !o.read && o.done.Load() != 0 && !applied[uint64(i+1)] {
				res.failf("acknowledged write %d missing at p%d", i+1, id)
				break
			}
		}
	}
	r.checkReads(res, pos)
}

// checkReads verifies, per key, that each answered read was served at an
// applied index that includes the last write to that key acknowledged
// before the read was first sent.
func (r *liveRun) checkReads(res *result, pos map[uint64]int) {
	type ack struct {
		at  int64
		pos int
	}
	acks := make(map[int][]ack)
	for i := range r.ops {
		o := &r.ops[i]
		if o.read || o.done.Load() == 0 {
			continue
		}
		acks[o.key] = append(acks[o.key], ack{o.done.Load(), pos[uint64(i+1)]})
	}
	for _, a := range acks {
		sort.Slice(a, func(i, j int) bool { return a[i].at < a[j].at })
	}
	bad := 0
	for i := range r.ops {
		o := &r.ops[i]
		if !o.read || o.done.Load() == 0 || o.attempts == 0 {
			continue
		}
		a := acks[o.key]
		k := sort.Search(len(a), func(j int) bool { return a[j].at >= o.first })
		need := -1
		for _, x := range a[:k] {
			if x.pos > need {
				need = x.pos
			}
		}
		if int(o.index.Load()) < need+1 {
			bad++
		}
	}
	if bad > 0 {
		res.failf("%d reads returned state older than a write acknowledged before them", bad)
	}
}
