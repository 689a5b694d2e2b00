package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// One sim-sweep schedule: n processes, each core Ω composed with rsm, all
// links eventually timely (lossless, delays up to simMaxDelay before GST
// and within simDelta after), the leader crashed after GST, commands submitted at followers,
// then an idle tail over which the paper's quiescence claim is checked.
const (
	simGST      = 300 * time.Millisecond
	simDelta    = 2 * time.Millisecond
	simMaxDelay = 50 * time.Millisecond
	simEta      = 10 * time.Millisecond
	simCrashAt  = 400 * time.Millisecond
	simCommands = 40
	simSpacing  = 5 * time.Millisecond
	simSettle   = 500 * time.Millisecond
	simTail     = time.Second
	// exactSchedules is how many of a run's first schedules the exact
	// counts are taken over, so they repeat for a seed whatever the
	// machine's speed.
	exactSchedules = 16
	// simWorkers is the sweep pool's size: one worker, so the schedules
	// need one of the machine's cores and the Go runtime (GC) has the
	// other; with a worker per core the rate follows whatever else the
	// host runs on either of them.
	simWorkers = 1
	// simWindow is the shortest window the rate is taken over.
	simWindow = 250 * time.Millisecond
)

// schedule is one simulated run's outcome.
type schedule struct {
	problem     string
	wall        time.Duration // build, run and check
	runWall     time.Duration // inside RunFor
	checkWall   time.Duration
	events      uint64
	msgs        uint64
	tailPerEta  float64 // messages per η over the idle tail
	tailLinks   int
	rsmMsgs     uint64
	decided     int
	hbPerEta    float64
	leaderMoves int
	commitMs    []float64 // virtual ms from each Submit to its apply at the submitting replica
	drainMs     float64   // virtual ms from the first Submit to the last such apply
}

// simWorld builds one schedule's world; the children are wrapped when st
// is non-nil.
func simWorld(seed int64, st *stack) (*node.World, []*core.Detector, []*rsm.Node, error) {
	w, err := node.NewWorld(node.WorldConfig{
		N: clusterN, Seed: seed, GST: sim.Time(simGST),
		DefaultLink: network.EventuallyTimely(simDelta, simMaxDelay, 0),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	dets := make([]*core.Detector, clusterN)
	logs := make([]*rsm.Node, clusterN)
	for i := range dets {
		dets[i] = core.New(core.WithEta(simEta))
		logs[i] = rsm.New(dets[i], rsm.Config{})
		var d, l node.Automaton = dets[i], logs[i]
		if st != nil {
			d = newTimedAuto("core", dets[i], st, isCoreMsg, "core/")
			l = newTimedAuto("rsm", logs[i], st, isRsmMsg, "rsm/")
		}
		w.SetAutomaton(node.ID(i), node.Compose(d, l))
	}
	w.Start()
	return w, dets, logs, nil
}

// runSchedule builds, runs and checks one schedule.
func runSchedule(seed int64, rec *recorder) schedule {
	start := time.Now()
	st := rec.newStack()
	st.push("sweep.task", 0)
	var s schedule
	w, dets, logs, err := simWorld(seed, st)
	if err != nil {
		s.problem = err.Error()
		return s
	}
	run := func(d time.Duration) {
		st.push("sim.runfor", 0)
		t := time.Now()
		w.RunFor(d)
		s.runWall += time.Since(t)
		st.pop()
	}
	run(simCrashAt)
	first := dets[0].Leader()
	w.Crash(first)
	var proposed []consensus.Value
	type submit struct {
		at node.ID
		t  sim.Time
	}
	submits := make(map[consensus.Value]submit, simCommands)
	for c := 0; c < simCommands; c++ {
		at := node.ID((int(first) + 1 + c%(clusterN-1)) % clusterN)
		v := consensus.Value(fmt.Sprintf("s%d-c%d", seed, c))
		proposed = append(proposed, v)
		submits[v] = submit{at, w.Kernel.Now()}
		logs[at].Submit(v)
		run(simSpacing)
	}
	run(simSettle)
	tailFrom := w.Kernel.Now()
	hb0 := w.Stats.KindCount(core.KindLeader)
	run(simTail)
	horizon := w.Kernel.Now()

	t := time.Now()
	hist := make([]*detector.History, clusterN)
	var recs []*consensus.Recorder
	for i := range dets {
		hist[i] = dets[i].History()
		recs = append(recs, logs[i].Recorder())
	}
	crashedAt, _ := w.CrashedAt(first)
	st.push("check.omega", 0)
	om := check.Omega(check.OmegaInput{Histories: hist, Crashed: map[node.ID]sim.Time{first: crashedAt}, Horizon: horizon})
	st.pop()
	st.push("check.commeff", 0)
	ce := check.CommEff(w.Stats.Snapshot(), om.Leader, tailFrom, horizon, simEta)
	st.pop()
	decided := logs[om.Leader].HighestDecided() + 1
	props := make(map[int][]consensus.Value, decided)
	for i := 0; i < decided; i++ {
		props[i] = proposed
	}
	st.push("check.safety", 0)
	safe := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs, Proposed: props, Crashed: map[node.ID]sim.Time{first: crashedAt}})
	st.pop()
	s.checkWall = time.Since(t)

	switch {
	case !om.Holds:
		s.problem = "omega: " + om.Reason
	case !ce.Efficient:
		s.problem = fmt.Sprintf("not communication-efficient over the tail: senders %v", ce.Senders)
	case !safe.Holds():
		s.problem = fmt.Sprintf("consensus safety: %v", safe.Violations)
	}
	for i := range logs {
		if s.problem == "" && node.ID(i) != first && logs[i].Applied() < simCommands {
			s.problem = fmt.Sprintf("p%d applied %d of %d commands", i, logs[i].Applied(), simCommands)
		}
	}
	s.events = w.Kernel.Processed()
	s.msgs = w.Stats.TotalSent()
	s.tailPerEta = ce.MessagesPerPeriod
	s.tailLinks = ce.LinksUsed
	s.rsmMsgs = kindTotal(w.Stats, rsmKinds)
	s.decided = decided
	s.hbPerEta = float64(w.Stats.KindCount(core.KindLeader)-hb0) / (float64(horizon.Sub(tailFrom)) / float64(simEta))
	s.leaderMoves = om.Changes
	firstSubmit := submits[proposed[0]].t
	for i := range logs {
		for _, d := range logs[i].Recorder().All() {
			if sub, ok := submits[d.Value]; ok && sub.at == node.ID(i) {
				s.commitMs = append(s.commitMs, float64(d.At.Sub(sub.t))/1e6)
				s.drainMs = max(s.drainMs, float64(d.At.Sub(firstSubmit))/1e6)
				delete(submits, d.Value) // first apply only
			}
		}
	}
	st.pop()
	s.wall = time.Since(start)
	return s
}

// runSimSweep fans seeded schedules across the sweep pool for the run's
// length, in rounds of one schedule per worker slot.
func runSimSweep(seed int64, seconds float64, traced bool, clk *clock) (*result, error) {
	var rec *recorder
	if traced {
		rec = &recorder{t0: clk.t0}
	}
	seeds := seeded(seed, streamSchedules)
	// setup_s: the time to build a schedule's world and boot it, the
	// median of several builds.
	var setup []float64
	for i := 0; i < 101; i++ {
		t := time.Now()
		if _, _, _, err := simWorld(seeds.Int63(), nil); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	pool := sweep.New(simWorkers)
	batch := 4 * pool.Workers()
	var all []schedule
	// The run is cut into windows of at least simWindow; the rate and the
	// CPU per schedule are the medians over them, so a stretch in which
	// other tenants slow the machine moves a few windows, not the figure.
	var winRates, winCPU []float64
	cpu0 := cpuTime()
	start := time.Now()
	winAt, winCPU0, winN := start, cpu0, 0
	limit := time.Duration(seconds * float64(time.Second))
	for time.Since(start) < limit {
		sds := make([]int64, batch)
		for i := range sds {
			sds[i] = seeds.Int63()
		}
		got := sweep.Map(pool, batch, func(i int) schedule { return runSchedule(sds[i], rec) })
		all = append(all, got...)
		for _, s := range got {
			if s.problem == "" {
				winN++
			}
		}
		if d := time.Since(winAt); d >= simWindow {
			c := cpuTime()
			winRates = append(winRates, float64(winN)/d.Seconds())
			winCPU = append(winCPU, float64(c-winCPU0)/1e3/math.Max(1, float64(winN)))
			winAt, winCPU0, winN = time.Now(), c, 0
		}
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0

	res := &result{attempted: len(all), rec: rec}
	var walls []float64
	var taskTime, runWall, checkWall time.Duration
	var events, msgs uint64
	for _, s := range all {
		if s.problem != "" {
			res.failed++
			res.failf("schedule: %s", s.problem)
		}
		walls = append(walls, float64(s.wall)/1e6)
		taskTime += s.wall
		runWall += s.runWall
		checkWall += s.checkWall
		events += s.events
		msgs += s.msgs
	}
	if len(res.problems) > 3 {
		res.problems = append(res.problems[:3], fmt.Sprintf("and %d more", len(res.problems)-3))
	}
	// The exact counts come from the first schedules only, so they
	// repeat for a seed however many schedules the machine completes.
	var tail, links, perDecision, hb, moves, drain float64
	var commit []float64
	ex := all[:min(exactSchedules, len(all))]
	for _, s := range ex {
		tail += s.tailPerEta
		links += float64(s.tailLinks)
		perDecision += float64(s.rsmMsgs) / math.Max(1, float64(s.decided))
		hb += s.hbPerEta
		moves += float64(s.leaderMoves)
		drain += s.drainMs
		commit = append(commit, s.commitMs...)
	}
	k := float64(len(ex))
	verified := float64(len(all) - res.failed)
	rate, cpuPerOp := median(winRates), median(winCPU)
	p50, p99 := percentile(append([]float64(nil), walls...), 0.5), percentile(walls, 0.99)
	c50, c99 := percentile(append([]float64(nil), commit...), 0.5), percentile(commit, 0.99)
	res.notef("sim_schedules_per_s %.2f 1/s (median of %d windows of %v; %d schedules, %d workers; whole run %.2f 1/s)",
		rate, len(winRates), simWindow, len(all), pool.Workers(), verified/wall.Seconds())
	res.notef("schedule wall p50 %.3f ms, p%.2f %.3f ms (n=%d)", p50.Value, 100*p99.Q, p99.Value, p99.N)
	res.notef("steady_msgs_per_eta %.4f msgs (mean of the first %d schedules)", tail/k, len(ex))
	res.notef("links_after_gst %.4f links", links/k)
	res.notef("sim_msgs_per_decision %.4f msgs", perDecision/k)
	res.notef("sim commit latency p50 %.4f ms, p%.2f %.4f ms simulated (n=%d)", c50.Value, 100*c99.Q, c99.Value, c99.N)
	res.notef("sim drain rate %.4f commands per simulated second", float64(simCommands)*k/(drain/1e3))
	res.notef("cpu_us_per_op %.2f µs (median over the windows of process CPU ÷ verified schedules; whole run %.2f µs, %.1f%% of the machine)",
		cpuPerOp, float64(cpu)/1e3/math.Max(1, verified), 100*float64(cpu)/float64(wall)/float64(runtime.NumCPU()))
	res.e2e = map[string]float64{
		"setup_s":       median(setup),
		"ops_per_s":     rate,
		"msgs_per_op":   perDecision / k,
		"cpu_us_per_op": cpuPerOp,
	}
	n := float64(len(all))
	res.layer = map[string]float64{
		"core.hb_per_eta":           hb / k,
		"core.leader_changes":       moves / k,
		"sim.events_per_s":          float64(events) / runWall.Seconds(),
		"sim.events_per_schedule":   float64(events) / n,
		"network.msgs_per_schedule": float64(msgs) / n,
		"sweep.worker_util":         taskTime.Seconds() / (float64(pool.Workers()) * wall.Seconds()),
		"sweep.schedules_per_s":     rate,
		"check.ms_per_schedule":     float64(checkWall) / 1e6 / n,
	}
	if rec != nil {
		var rsmSelf, coreBusy float64
		for _, name := range []string{"rsm.start", "rsm.deliver", "rsm.tick"} {
			rsmSelf += float64(rec.totals(name).Self)
		}
		for _, name := range []string{"core.start", "core.deliver", "core.tick"} {
			coreBusy += float64(rec.totals(name).Busy)
		}
		decided := 0
		for _, s := range all {
			decided += s.decided
		}
		res.layer["rsm.self_us_per_op"] = rsmSelf / 1e3 / math.Max(1, float64(decided))
		res.layer["core.busy_frac"] = coreBusy / float64(taskTime)
		res.layer["trace.spans_per_op"] = float64(rec.spanCount()) / n
	}
	return res, nil
}
