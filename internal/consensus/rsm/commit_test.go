package rsm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
)

// Tests for lazy commit dissemination (pipeline.go) and for the leader
// changes it depends on: a deposed leader drops its in-flight state, and
// phase 1 learns every decision its quorum knows (proposer.go).

func TestPiggybackDecidesConvergeWithoutDecideBroadcasts(t *testing.T) {
	c := newCluster(t, 5, 21, network.Timely(2*ms))
	c.world.Start()
	c.world.RunFor(500 * ms)
	// Streaming workload: each command's ACCEPT piggybacks the previous
	// command's commit, so followers learn without DECIDE broadcasts.
	for i := 0; i < 10; i++ {
		c.nodes[0].Submit(consensus.Value(fmt.Sprintf("c%d", i)))
		c.world.RunFor(30 * ms)
	}
	c.world.RunFor(2 * time.Second)
	for i, s := range c.nodes {
		if s.FirstGap() < 10 {
			t.Fatalf("p%d decided %d instances, want 10", i, s.FirstGap())
		}
	}
	c.assertPrefixAgreement(t)
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
	// Only the idle tail needs LEARN-triggered decides: the last instance
	// per follower, far below the 10·(n−1)=40 of a broadcast scheme.
	if got := c.world.Stats.KindCount(KindDecide); got > 12 {
		t.Fatalf("DECIDE messages = %d, want ≤ 12 with piggybacking", got)
	}
}

// streamingCost runs cmds commands one per 30 ms from the given origins
// (round robin) on a fresh n=5 cluster and returns the consensus messages
// sent per command while streaming, and the DECIDE and LEARN counts.
func streamingCost(t *testing.T, origins []node.ID, cmds int) (perCmd float64, decides, learns uint64) {
	t.Helper()
	c := newCluster(t, 5, 22, network.Timely(2*ms))
	c.world.Start()
	c.world.RunFor(500 * ms)
	kinds := []string{KindRequest, KindAccept, KindAccepted, KindDecide, KindLearn}
	count := func() (total uint64) {
		for _, k := range kinds {
			total += c.world.Stats.KindCount(k)
		}
		return total
	}
	before, d0, l0 := count(), c.world.Stats.KindCount(KindDecide), c.world.Stats.KindCount(KindLearn)
	for i := 0; i < cmds; i++ {
		c.nodes[origins[i%len(origins)]].Submit(consensus.Value(fmt.Sprintf("c%d", i)))
		c.world.RunFor(30 * ms) // continuous stream: one instance per command
	}
	total := count() - before
	return float64(total) / float64(cmds), c.world.Stats.KindCount(KindDecide) - d0, c.world.Stats.KindCount(KindLearn) - l0
}

func TestStreamingCostPerInstanceIsExact(t *testing.T) {
	const n, cmds = 5, 30
	// Leader origin: ACCEPT + ACCEPTED to and from every follower, and no
	// DECIDE or LEARN while the stream runs — 2(n−1) exactly.
	perCmd, decides, learns := streamingCost(t, []node.ID{0}, cmds)
	if perCmd != 2*(n-1) || decides != 0 || learns != 0 {
		t.Fatalf("leader origin: %.2f msgs/cmd, %d DECIDEs, %d LEARNs; want %d, 0, 0", perCmd, decides, learns, 2*(n-1))
	}
	// Follower origin: plus the request hop and one DECIDE back to the
	// forwarder — 2(n−1)+2 exactly. (Links are not FIFO: when the DECIDE
	// overtakes the forwarder's ACCEPT, it answers that ACCEPT with a
	// DECIDE instead of an ACCEPTED, which keeps the total.)
	perCmd, decides, learns = streamingCost(t, []node.ID{2}, cmds)
	if perCmd != 2*(n-1)+2 || decides < cmds || learns != 0 {
		t.Fatalf("follower origin: %.2f msgs/cmd, %d DECIDEs, %d LEARNs; want %d, ≥%d, 0", perCmd, decides, learns, 2*(n-1)+2, cmds)
	}
}

func TestPiggybackSafetyUnderLeaderCrash(t *testing.T) {
	c := newCluster(t, 5, 23, network.Timely(2*ms))
	c.world.Start()
	c.world.RunFor(300 * ms)
	for i := 0; i < 6; i++ {
		c.nodes[0].Submit(consensus.Value(fmt.Sprintf("pre%d", i)))
	}
	c.world.RunFor(25 * ms)
	c.world.Crash(0)
	c.nodes[1].Submit("after")
	c.world.RunFor(5 * time.Second)
	c.assertPrefixAgreement(t)
	if rep := c.safety(); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
}

func TestCommitUpToOnlyAppliesAtSameBallot(t *testing.T) {
	// An acceptor holding a value from an older ballot must NOT treat it
	// as decided when a new leader's CommitUpTo covers the instance.
	r := New(consensus.StaticLeader(1), Config{})
	env := newFakeEnv(2, 3)
	r.Start(env)
	oldB := consensus.MakeBallot(1, 0, 3)
	newB := consensus.MakeBallot(5, 1, 3)
	r.Deliver(0, AcceptMsg{B: oldB, Inst: 0, V: "old"})
	env.drain()
	// New leader commits instance 1 but our instance-0 entry is from the
	// old ballot: it must stay undecided.
	r.Deliver(1, AcceptMsg{B: newB, Inst: 1, V: "new", CommitUpTo: 1})
	if _, ok := r.Get(0); ok {
		t.Fatal("instance 0 decided from a stale-ballot entry")
	}
	// Once the same instance is re-accepted at the new ballot, a later
	// CommitUpTo does decide it.
	r.Deliver(1, AcceptMsg{B: newB, Inst: 0, V: "repaired", CommitUpTo: 0})
	r.Deliver(1, AcceptMsg{B: newB, Inst: 2, V: "x", CommitUpTo: 2})
	v, ok := r.Get(0)
	if !ok || v != "repaired" {
		t.Fatalf("instance 0 = %q,%v; want repaired value decided", v, ok)
	}
	if _, ok := r.Get(1); !ok {
		t.Fatal("instance 1 not decided by CommitUpTo=2")
	}
}

// decideCounter counts the DECIDEs delivered to the node it wraps.
type decideCounter struct {
	*Node
	decides int
}

func (d *decideCounter) Deliver(from node.ID, m node.Message) {
	if _, ok := m.(DecideMsg); ok {
		d.decides++
	}
	d.Node.Deliver(from, m)
}

func TestForwardersApplyOwnCommandsWithoutLaterTraffic(t *testing.T) {
	// p1 and p2 forward interleaved commands; nothing follows them. Each
	// must apply its own commands from the leader's DECIDEs alone — before
	// any idle-tail LEARN — while p3 and p4 get no DECIDE at all.
	const n = 5
	w, err := node.NewWorld(node.WorldConfig{N: n, Seed: 24, DefaultLink: network.Timely(2 * ms)})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{world: w, dets: make([]*core.Detector, n), nodes: make([]*Node, n)}
	counters := make([]*decideCounter, n)
	for i := 0; i < n; i++ {
		c.dets[i] = core.New(core.WithEta(10 * ms))
		c.nodes[i] = New(c.dets[i], Config{})
		counters[i] = &decideCounter{Node: c.nodes[i]}
		w.SetAutomaton(node.ID(i), node.Compose(c.dets[i], counters[i]))
	}
	w.Start()
	w.RunFor(500 * ms)
	own := map[int][]consensus.Value{}
	for i := 0; i < 6; i++ {
		f := 1 + i%2
		v := consensus.Value(fmt.Sprintf("p%d-c%d", f, i))
		own[f] = append(own[f], v)
		c.nodes[f].Submit(v)
		w.RunFor(3 * ms)
	}
	w.RunFor(40 * ms) // well inside RetryTimeout: no LEARN yet
	if got := w.Stats.KindCount(KindLearn); got != 0 {
		t.Fatalf("%d LEARNs before the check; the test window is too long", got)
	}
	for f, vs := range own {
		applied := c.appliedSet(f)
		for _, v := range vs {
			if !applied[v] {
				t.Fatalf("p%d has not applied its own %q", f, v)
			}
		}
		if counters[f].decides == 0 {
			t.Fatalf("forwarder p%d got no DECIDE", f)
		}
	}
	for _, f := range []int{3, 4} {
		if got := counters[f].decides; got != 0 {
			t.Fatalf("p%d forwarded nothing but got %d DECIDEs", f, got)
		}
	}
	w.RunFor(time.Second) // the idle tail: LEARN gap-fill
	c.assertPrefixAgreement(t)
	for i, s := range c.nodes {
		if s.Applied() != c.nodes[0].Applied() {
			t.Fatalf("p%d applied %d commands after the tail, leader %d", i, s.Applied(), c.nodes[0].Applied())
		}
	}
}

func TestCheckpointTellsFollowersFirst(t *testing.T) {
	// A leader-origin decision reaches followers lazily — unless the
	// leader is about to absorb it into a checkpoint: restarted from that
	// checkpoint, the leader could no longer serve it, so every follower
	// hears it first.
	for _, every := range []int{0, 1} {
		r := New(consensus.StaticLeader(0), Config{SnapshotEvery: every})
		env := newFakeEnv(0, 3)
		r.Start(env)
		r.Tick(timerDrive)
		r.Deliver(1, PromiseMsg{B: r.prop.ballot})
		r.Submit("a")
		env.drain()
		r.Deliver(1, AcceptedMsg{B: r.prop.ballot, Inst: 0})
		if _, ok := r.Get(0); !ok {
			t.Fatal("instance 0 not decided")
		}
		told := map[node.ID]bool{}
		for _, s := range env.drain() {
			if d, ok := s.msg.(DecideMsg); ok && d.Inst == 0 && d.V == "a" {
				told[s.to] = true
			}
		}
		if want := every > 0; told[1] != want || told[2] != want {
			t.Fatalf("SnapshotEvery=%d: DECIDE sent to %v, want both followers %v", every, told, want)
		}
	}
}

func TestSimSweepScheduleStaysQuiet(t *testing.T) {
	// A schedule from the benchmark's sim-sweep workload (world seed
	// 1126040448270972733): n=5, eventually timely links, the leader
	// crashed after GST, 40 commands at followers. A phase 1 that reopens
	// an instance followers already decided once left it in the pipeline
	// for ever, and the re-sent ACCEPTs and their DECIDE answers broke
	// quiescence in the idle tail.
	const (
		n     = 5
		eta   = 10 * ms
		seed  = int64(1126040448270972733)
		cmds  = 40
		tailD = time.Second
	)
	w, err := node.NewWorld(node.WorldConfig{
		N: n, Seed: seed, GST: sim.Time(300 * ms),
		DefaultLink: network.EventuallyTimely(2*ms, 50*ms, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	dets := make([]*core.Detector, n)
	logs := make([]*Node, n)
	for i := range dets {
		dets[i] = core.New(core.WithEta(eta))
		logs[i] = New(dets[i], Config{})
		w.SetAutomaton(node.ID(i), node.Compose(dets[i], logs[i]))
	}
	w.Start()
	w.RunFor(400 * ms)
	first := dets[0].Leader()
	w.Crash(first)
	for i := 0; i < cmds; i++ {
		at := node.ID((int(first) + 1 + i%(n-1)) % n)
		logs[at].Submit(consensus.Value(fmt.Sprintf("s%d-c%d", seed, i)))
		w.RunFor(5 * ms)
	}
	w.RunFor(500 * ms)
	tailFrom := w.Kernel.Now()
	w.RunFor(tailD)
	leader := dets[(int(first)+1)%n].Leader()
	ce := check.CommEff(w.Stats.Snapshot(), leader, tailFrom, w.Kernel.Now(), eta)
	if !ce.Efficient {
		t.Fatalf("not communication-efficient over the tail: senders %v (leader p%d)", ce.Senders, leader)
	}
	for i := range logs {
		if node.ID(i) != first && logs[i].Applied() < cmds {
			t.Fatalf("p%d applied %d of %d commands", i, logs[i].Applied(), cmds)
		}
	}
}

func TestReelectedLeaderDropsOldBallotState(t *testing.T) {
	// p0 proposes "a" at instance 0 under ballot b1 and collects p1's
	// ACCEPTED. p3's higher PREPARE deposes it, p3's ballot decides "x"
	// there, and p0 hears of it by DECIDE. Re-elected at b2, p0 must
	// neither re-drive "a" at instance 0 nor keep the b1 ack around to
	// count toward b2's quorum; "a" itself goes into a fresh instance.
	r := New(consensus.StaticLeader(0), Config{})
	env := newFakeEnv(0, 5)
	r.Start(env)
	r.Tick(timerDrive)
	b1 := r.prop.ballot
	r.Deliver(1, PromiseMsg{B: b1})
	r.Deliver(2, PromiseMsg{B: b1})
	if !r.IsLeader() {
		t.Fatal("p0 not prepared at b1")
	}
	r.Submit("a")
	if got := acceptsOf(env.drain())[0]; got != "a" {
		t.Fatalf("instance 0 proposed %q at b1, want a", got)
	}
	r.Deliver(1, AcceptedMsg{B: b1, Inst: 0})
	r.Deliver(3, PrepareMsg{B: b1 + 10})
	if r.IsLeader() {
		t.Fatal("higher PREPARE did not depose p0")
	}
	if len(r.pipe.inflights) != 0 {
		t.Fatalf("deposed leader keeps %d in-flight instances with their b1 acks", len(r.pipe.inflights))
	}
	r.Deliver(3, DecideMsg{Inst: 0, V: "x"})
	env.drain()
	env.now = env.now.Add(time.Hour)
	r.Tick(timerDrive) // re-prepare at b2 > b1+10
	b2 := r.prop.ballot
	r.Deliver(2, PromiseMsg{B: b2})
	r.Deliver(4, PromiseMsg{B: b2})
	if !r.IsLeader() {
		t.Fatal("p0 not re-prepared at b2")
	}
	for i := 0; i < 3; i++ { // let redrive fire if anything stale is left
		env.now = env.now.Add(time.Second)
		r.Tick(timerDrive)
	}
	for _, s := range env.drain() {
		if a, ok := s.msg.(AcceptMsg); ok && a.Inst == 0 {
			t.Fatalf("decided instance 0 re-driven with %q under ballot %v", a.V, a.B)
		}
	}
	if fl, ok := r.pipe.inflights[1]; !ok || fl.v != "a" {
		t.Fatalf("released command not re-proposed at instance 1: %+v", r.pipe.inflights)
	}
}

// shuttle delivers every queued message between fake-env nodes until
// none is left, calling observe on each one first.
func shuttle(nodes []*Node, envs []*fakeEnv, observe func(from node.ID, s sent)) {
	for {
		moved := false
		for i, e := range envs {
			for _, s := range e.drain() {
				moved = true
				if observe != nil {
					observe(node.ID(i), s)
				}
				nodes[s.to].Deliver(node.ID(i), s.msg)
			}
		}
		if !moved {
			return
		}
	}
}

// settle runs rounds of shuttle, each followed by a drive tick on every
// node one RetryTimeout later, so NACKed prepares retry and gap fills
// fire.
func settle(nodes []*Node, envs []*fakeEnv, rounds int, observe func(from node.ID, s sent)) {
	for i := 0; i < rounds; i++ {
		shuttle(nodes, envs, observe)
		for j, r := range nodes {
			envs[j].now = envs[j].now.Add(100 * ms)
			r.Tick(timerDrive)
		}
	}
	shuttle(nodes, envs, observe)
}

// fakeCluster builds n nodes on fake envs, p0 the static leader.
func fakeCluster(n int) ([]*Node, []*fakeEnv) {
	nodes := make([]*Node, n)
	envs := make([]*fakeEnv, n)
	for i := range nodes {
		nodes[i] = New(consensus.StaticLeader(0), Config{})
		envs[i] = newFakeEnv(node.ID(i), n)
		nodes[i].Start(envs[i])
	}
	return nodes, envs
}

func TestPhase1LearnsValueItsWholeQuorumDecided(t *testing.T) {
	// p1 and p2 accepted "chosen" at instance 0 and then learned it, so
	// neither holds a vote there any more; p0 missed all of it. p0's
	// quorum is {p0, p1, p2}: phase 1 must still bring it "chosen", and
	// p0 must propose nothing else at instance 0.
	nodes, envs := fakeCluster(3)
	for _, f := range nodes[1:] {
		f.Deliver(1, AcceptMsg{B: consensus.MakeBallot(1, 1, 3), Inst: 0, V: "chosen"})
		f.learn(0, "chosen")
	}
	envs[1].drain()
	envs[2].drain()
	nodes[0].Submit("new")
	settle(nodes, envs, 5, func(from node.ID, s sent) {
		if a, ok := s.msg.(AcceptMsg); ok && a.Inst == 0 && a.V != "chosen" {
			t.Fatalf("p%d proposed %q at decided instance 0", from, a.V)
		}
	})
	if v, ok := nodes[0].Get(0); !ok || v != "chosen" {
		t.Fatalf("leader's instance 0 = %q,%v; want chosen", v, ok)
	}
	if v, ok := nodes[0].Get(1); !ok || v != "new" {
		t.Fatalf("leader's instance 1 = %q,%v; want the new command", v, ok)
	}
	if rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: []*consensus.Recorder{
		nodes[0].Recorder(), nodes[1].Recorder(), nodes[2].Recorder()}}); !rep.Holds() {
		t.Fatalf("safety: %v", rep.Violations)
	}
}

func TestFarBehindPreparerCatchesUpUnderPromiseCap(t *testing.T) {
	// p1 and p2 decided 10000 instances p0 never saw. p0's PROMISEs must
	// stay under the cap, and p0 must still learn all 10000 — through the
	// promise and then LEARN — without proposing at any of them.
	const behind = 10000
	nodes, envs := fakeCluster(3)
	for inst := 0; inst < behind; inst++ {
		v := consensus.Value(fmt.Sprintf("%064d", inst))
		nodes[1].learn(inst, v)
		nodes[2].learn(inst, v)
	}
	nodes[0].Submit("new")
	promises := 0
	settle(nodes, envs, 3, func(from node.ID, s sent) {
		switch m := s.msg.(type) {
		case PromiseMsg:
			promises++
			bytes := 0
			for _, e := range m.Entries {
				bytes += len(e.AccV)
			}
			if len(m.Entries) > promiseMaxDecided+1 || bytes > promiseMaxBytes {
				t.Fatalf("promise from p%d: %d entries, %d value bytes — over the cap", from, len(m.Entries), bytes)
			}
			if last := m.Entries[len(m.Entries)-1]; last.Mark != PromCapped || last.Inst != behind-1 {
				t.Fatalf("capped promise ends in %+v, want a PromCapped entry at %d", last, behind-1)
			}
		case AcceptMsg:
			if m.Inst < behind {
				t.Fatalf("p%d proposed %q at decided instance %d", from, m.V, m.Inst)
			}
		}
	})
	if promises == 0 {
		t.Fatal("no PROMISE was sent")
	}
	if got := nodes[0].FirstGap(); got != behind+1 {
		t.Fatalf("leader's first gap = %d, want %d", got, behind+1)
	}
	if v, _ := nodes[0].Get(behind); v != "new" {
		t.Fatalf("new command at %d = %q", behind, v)
	}
	for inst := 0; inst < behind; inst += 997 {
		want, _ := nodes[1].Get(inst)
		if got, _ := nodes[0].Get(inst); got != want {
			t.Fatalf("instance %d: leader %q, p1 %q", inst, got, want)
		}
	}
}
