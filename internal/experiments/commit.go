package experiments

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
)

// dissemKinds are the message kinds one E12 cell counts, in column order.
var dissemKinds = []string{rsm.KindRequest, rsm.KindAccept, rsm.KindAccepted, rsm.KindDecide, rsm.KindLearn}

// dissemWorkload is one E12 row: who submits the commands, and whether
// they stream (one per 30 ms) or arrive as one burst.
type dissemWorkload struct {
	name    string
	origins []node.ID
	burst   bool
}

var dissemWorkloads = []dissemWorkload{
	{name: "leader-origin streaming", origins: []node.ID{0}},
	{name: "follower-origin streaming", origins: []node.ID{2}},
	{name: "two-origin streaming", origins: []node.ID{1, 2}},
	{name: "burst-then-idle", origins: []node.ID{0}, burst: true},
}

// DissemCell is one measured E12 workload: instances decided and, per
// counted kind (dissemKinds order), the messages sent while commands
// were arriving (Load) and in the idle tail after them (Tail).
type DissemCell struct {
	Cmds, Instances int
	Load, Tail      []uint64
}

// E12CommitDissemination regenerates Table 8: how the replicated log
// tells replicas about decisions. Every ACCEPT carries the leader's
// commit index; the leader sends a DECIDE only to replicas that
// forwarded a command into the instance; everyone else learns from the
// next ACCEPT, or by LEARN gap-fill once the stream idles. A streaming
// instance therefore costs exactly 2(n−1) messages from the leader and
// 2(n−1)+2 from a follower (request hop plus the DECIDE back), and only
// an idle tail pays LEARN request and DECIDE reply per follower.
func E12CommitDissemination(o Opts) Table {
	o.fill()
	const n = 5
	cmds := 60
	if o.Quick {
		cmds = 30
	}
	t := Table{
		ID:    "E12",
		Title: "commit dissemination in the replicated log (Table 8)",
		Note: fmt.Sprintf("n=%d, %d commands; streaming = one command per 30ms, burst = all at once; load = messages while commands arrive, tail = the idle second after; 2(n-1)=%d, 2(n-1)+2=%d",
			n, cmds, 2*(n-1), 2*(n-1)+2),
		Columns: []string{"workload", "instances", "load msgs/instance", "REQ", "ACCEPT", "ACCEPTED", "DECIDE", "LEARN", "tail msgs"},
	}
	res := sweepEach(o, dissemWorkloads, func(wl dissemWorkload) DissemCell {
		return dissemRun(n, cmds, wl)
	})
	for i, wl := range dissemWorkloads {
		c := res[i]
		var load, tail uint64
		for k := range dissemKinds {
			load += c.Load[k]
			tail += c.Tail[k]
		}
		row := []string{wl.name, fmt.Sprintf("%d", c.Instances), fmt.Sprintf("%.2f", float64(load)/float64(c.Instances))}
		for k := range dissemKinds {
			row = append(row, fmt.Sprintf("%d", c.Load[k]+c.Tail[k]))
		}
		t.Rows = append(t.Rows, append(row, fmt.Sprintf("%d", tail)))
	}
	return t
}

// dissemRun executes one E12 cell on a fresh, stabilized n-process world.
func dissemRun(n, cmds int, wl dissemWorkload) DissemCell {
	w, err := node.NewWorld(node.WorldConfig{N: n, Seed: 31, DefaultLink: network.Timely(2 * time.Millisecond)})
	if err != nil {
		panic(err)
	}
	logs := make([]*rsm.Node, n)
	for i := 0; i < n; i++ {
		det := core.New(core.WithEta(Eta))
		logs[i] = rsm.New(det, rsm.Config{})
		w.SetAutomaton(node.ID(i), node.Compose(det, logs[i]))
	}
	w.Start()
	w.RunFor(500 * time.Millisecond)
	counts := func() []uint64 {
		out := make([]uint64, len(dissemKinds))
		for k, kind := range dissemKinds {
			out[k] = w.Stats.KindCount(kind)
		}
		return out
	}
	diff := func(a, b []uint64) []uint64 {
		out := make([]uint64, len(a))
		for k := range a {
			out[k] = a[k] - b[k]
		}
		return out
	}
	gap0, c0 := logs[0].FirstGap(), counts()
	for i := 0; i < cmds; i++ {
		logs[wl.origins[i%len(wl.origins)]].Submit(consensus.Value(fmt.Sprintf("c%d", i)))
		if !wl.burst {
			w.RunFor(30 * time.Millisecond)
		}
	}
	if wl.burst {
		// The burst's load phase: until the leader has decided it all.
		target := logs[0].Applied() + cmds
		w.RunUntil(w.Kernel.Now().Add(5*time.Second), func() bool { return logs[0].Applied() >= target })
	}
	c1 := counts()
	w.RunFor(time.Second) // the idle tail: gap fills included in the cost
	return DissemCell{
		Cmds: cmds, Instances: logs[0].FirstGap() - gap0,
		Load: diff(c1, c0), Tail: diff(counts(), c1),
	}
}
