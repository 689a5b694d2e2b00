package rsm

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// churnSchedules sizes the seeded churn sweeps; make safety-sweep runs
// them with -rsm.churn-schedules=20000.
var churnSchedules = flag.Int("rsm.churn-schedules", 1000, "schedules per seeded churn safety sweep")

// churnRun is each schedule's simulated length: election, the crash and
// re-election, and the idle tail's gap fills all end well inside it.
var churnRun = 3 * time.Second

// churnSchedule runs one seeded churn schedule: n=5 on reliable links
// with 1–50 ms delays, 8 commands submitted at time zero from the
// replicas origin(0..7), and replica seed%5 crashed at (seed%7)·30 ms.
// It returns what went wrong, or "" when the decided logs agree, every
// decision is safe, and every correct replica applied every command a
// correct replica submitted.
func churnSchedule(seed int64, origin func(i int) int) string {
	const n, cmds = 5, 8
	w, err := node.NewWorld(node.WorldConfig{N: n, Seed: seed, DefaultLink: network.Reliable(ms, 50*ms)})
	if err != nil {
		return err.Error()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		det := core.New(core.WithEta(10 * ms))
		nodes[i] = New(det, Config{})
		w.SetAutomaton(node.ID(i), node.Compose(det, nodes[i]))
	}
	w.Start()
	crashed := node.ID(seed % n)
	var want []consensus.Value
	for i := 0; i < cmds; i++ {
		v := consensus.Value(fmt.Sprintf("s%d-c%d", seed, i))
		at := origin(i)
		nodes[at].Submit(v)
		if node.ID(at) != crashed {
			want = append(want, v)
		}
	}
	w.CrashAt(crashed, sim.At(time.Duration(seed%7)*30*ms))
	w.RunFor(churnRun)

	recs := make([]*consensus.Recorder, n)
	for i, r := range nodes {
		recs[i] = r.Recorder()
	}
	if rep := consensus.CheckSafety(consensus.SafetyInput{Recorders: recs}); !rep.Holds() {
		return fmt.Sprintf("safety: %v", rep.Violations)
	}
	minGap := -1
	for i, r := range nodes {
		if node.ID(i) != crashed && (minGap < 0 || r.FirstGap() < minGap) {
			minGap = r.FirstGap()
		}
	}
	for inst := 0; inst < minGap; inst++ {
		want, _ := nodes[(crashed+1)%n].Get(inst)
		for i, r := range nodes {
			if got, _ := r.Get(inst); node.ID(i) != crashed && got != want {
				return fmt.Sprintf("instance %d: p%d has %q, p%d %q", inst, i, got, (crashed+1)%n, want)
			}
		}
	}
	for i, r := range nodes {
		if node.ID(i) == crashed {
			continue
		}
		applied := make(map[consensus.Value]bool)
		for _, d := range r.Recorder().All() {
			applied[d.Value] = true
		}
		for _, v := range want {
			if !applied[v] {
				return fmt.Sprintf("p%d never applied %q", i, v)
			}
		}
	}
	return ""
}

// sweepChurn fans seeds [0, count) across the sweep pool and fails the
// test with every schedule that went wrong (the first few, at least).
func sweepChurn(t *testing.T, count int, origin func(seed int64, i int) int) {
	t.Helper()
	problems := sweep.Map(sweep.New(0), count, func(i int) string {
		return churnSchedule(int64(i), func(c int) int { return origin(int64(i), c) })
	})
	failed := 0
	for seed, p := range problems {
		if p == "" {
			continue
		}
		if failed++; failed <= 5 {
			t.Errorf("seed %d: %s", seed, p)
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d churn schedules failed", failed, count)
	}
}

func TestSafetyUnderChurnSweep(t *testing.T) {
	// Commands spread over every replica, crashed one included.
	sweepChurn(t, *churnSchedules, func(seed int64, i int) int { return int(seed+int64(i)) % 5 })
}

func TestSafetyUnderChurnSweepTwoOrigins(t *testing.T) {
	// Two replicas interleave their commands, so most instances have a
	// forwarder that the leader owes a DECIDE, and the other forwarder
	// must learn around it.
	sweepChurn(t, *churnSchedules, func(seed int64, i int) int { return int(seed+1+int64(i%2)) % 5 })
}
