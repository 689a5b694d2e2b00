package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/node"
)

// metric is one reported quantity.
type metric struct {
	name, unit string
}

// endToEnd are the metrics every untraced run prints, whatever its
// workload; README.md says what each means on each workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"msgs_per_op", "msgs"},
	{"cpu_us_per_op", "us"},
}

// perLayer are the metrics every traced run prints. A layer the workload
// does not run reads 0.
var perLayer = []metric{
	{"rsm.self_us_per_op", "us"},
	{"rsm.busy_frac_leader", "frac"},
	{"rsm.cmds_per_instance", "cmds"},
	{"rsm.commit_p50_ms", "ms"},
	{"rsm.commit_p99_ms", "ms"},
	{"rsm.phase1_ms", "ms"},
	{"rsm.read_local_ratio", "frac"},
	{"rsm.msgs_per_read", "msgs"},
	{"core.busy_frac", "frac"},
	{"core.hb_per_eta", "msgs"},
	{"core.leader_changes", "count"},
	{"core.detect_ms", "ms"},
	{"durable.append_p50_us", "us"},
	{"durable.append_p99_us", "us"},
	{"durable.fsync_p50_us", "us"},
	{"durable.fsync_p99_us", "us"},
	{"durable.fsyncs_per_op", "count"},
	{"durable.bytes_per_op", "B"},
	{"durable.recover_ms", "ms"},
	{"transport.send_ns", "ns"},
	{"transport.hop_p50_us", "us"},
	{"transport.hop_p99_us", "us"},
	{"link.frames_per_flush", "frames"},
	{"link.bytes_per_flush", "B"},
	{"link.flushes_per_op", "count"},
	{"link.dropped_per_op", "frames"},
	{"wire.bytes_per_msg", "B"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"sim.events_per_s", "1/s"},
	{"sim.events_per_schedule", "events"},
	{"network.msgs_per_schedule", "msgs"},
	{"sweep.worker_util", "frac"},
	{"sweep.schedules_per_s", "1/s"},
	{"check.ms_per_schedule", "ms"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.retries_per_op", "count"},
	{"recovery.unavail_p50_ms", "ms"},
	{"recovery.catchup_p50_ms", "ms"},
	{"trace.spans_per_op", "spans"},
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	problems          []string // failed output checks
	notes             []string // human-readable lines, printed before the JSON
	e2e, layer        map[string]float64
	rec               *recorder // the traced run's spans, nil untraced
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// nz turns NaN (no samples) into 0 for the per-layer report.
func nz(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func flat(xss [][]float64) []float64 {
	var out []float64
	for _, xs := range xss {
		out = append(out, xs...)
	}
	return out
}

func nsToUnits(xs []int64, unit time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / float64(unit)
	}
	return out
}

// layers computes the per-layer metrics of a traced live run (nil
// otherwise) from the spans, hooks and counters it gathered.
func (lr *liveResult) layers() map[string]float64 {
	out := make(map[string]float64)
	r := lr.r
	L := r.layers
	if L == nil {
		return out
	}
	rec := r.rec
	// Span and hook totals cover the traced cluster's whole life, so they
	// are taken per operation served and per second since its set-up
	// began; counter differences cover the measured window only.
	ops := math.Max(1, float64(lr.servedAll))
	wall := float64(lr.t1.at - r.started)
	t0, t1 := lr.t0, lr.t1
	windowOps := math.Max(1, float64(lr.served))
	var rsmSelf, rsmBusyMax, coreBusy float64
	for _, st := range L.stacks {
		var busy float64
		for _, name := range []string{"rsm.start", "rsm.deliver", "rsm.tick"} {
			if a := st.agg[name]; a != nil {
				rsmSelf += float64(a.Self)
				busy += float64(a.Busy)
			}
		}
		rsmBusyMax = math.Max(rsmBusyMax, busy)
		for _, name := range []string{"core.start", "core.deliver", "core.tick"} {
			if a := st.agg[name]; a != nil {
				coreBusy += float64(a.Busy)
			}
		}
	}
	out["rsm.self_us_per_op"] = rsmSelf / 1e3 / ops
	out["rsm.busy_frac_leader"] = ratio(rsmBusyMax, wall)
	out["core.busy_frac"] = ratio(coreBusy, wall*clusterN)
	var cmds, insts, local, fallback float64
	for i := range r.reps {
		for _, rep := range r.reps[i] {
			local += float64(rep.log.LocalReads())
			fallback += float64(rep.log.FallbackReads())
		}
	}
	client := r.current(r.client)
	cmds, insts = float64(len(client.seq)), float64(client.instances)
	out["rsm.cmds_per_instance"] = ratio(cmds, insts)
	commits := flat(L.commits)
	out["rsm.commit_p50_ms"] = nz(median(append([]float64(nil), commits...)))
	out["rsm.commit_p99_ms"] = nz(percentile(commits, 0.99).Value)
	out["rsm.phase1_ms"] = nz(median(flat(L.phase1)))
	out["rsm.read_local_ratio"] = ratio(local, local+fallback)
	reads := 0.0
	for i := range r.ops[:len(lr.late)] {
		if o := &r.ops[i]; o.read && o.due >= t0.at {
			if _, ok := o.latency(); ok {
				reads++
			}
		}
	}
	out["rsm.msgs_per_read"] = ratio(float64(t1.readMsg-t0.readMsg), reads)
	out["core.hb_per_eta"] = ratio(float64(t1.hb-t0.hb), float64(t1.at-t0.at)/float64(10*time.Millisecond))
	changes := 0
	for _, cs := range L.changes {
		changes = max(changes, len(cs))
	}
	out["core.leader_changes"] = float64(changes)

	app := rec.totals("durable.append")
	fs := rec.totals("durable.fsync")
	appUs, fsUs := nsToUnits(app.Durs, time.Microsecond), nsToUnits(fs.Durs, time.Microsecond)
	out["durable.append_p50_us"] = nz(median(append([]float64(nil), appUs...)))
	out["durable.append_p99_us"] = nz(percentile(appUs, 0.99).Value)
	out["durable.fsync_p50_us"] = nz(median(append([]float64(nil), fsUs...)))
	out["durable.fsync_p99_us"] = nz(percentile(fsUs, 0.99).Value)
	out["durable.fsyncs_per_op"] = float64(fs.Count) / ops
	out["durable.bytes_per_op"] = float64(L.walBytes.Load()) / ops
	out["durable.recover_ms"] = nz(median(L.recover))

	send := rec.totals("env.send")
	out["transport.send_ns"] = ratio(float64(send.Busy), float64(send.Count))
	hops := flat(L.hops)
	out["transport.hop_p50_us"] = nz(median(append([]float64(nil), hops...)))
	out["transport.hop_p99_us"] = nz(percentile(hops, 0.99).Value)

	flushes := float64(L.flushes.Load())
	out["link.frames_per_flush"] = ratio(float64(L.frames.Load()), flushes)
	out["link.bytes_per_flush"] = ratio(float64(L.flushB.Load()), flushes)
	out["link.flushes_per_op"] = flushes / ops
	out["link.dropped_per_op"] = float64(t1.dropped-t0.dropped) / windowOps

	out["wire.bytes_per_msg"] = ratio(float64(t1.bytes-t0.bytes), float64(t1.sent-t0.sent))
	out["wire.encode_ns"], out["wire.decode_ns"] = codecCost(L.codec, sampled(L.stacks))

	retries := 0
	for i := range r.ops[:len(lr.late)] {
		retries += max(0, r.ops[i].attempts-1)
	}
	out["loadgen.late_p99_us"] = percentile(append([]float64(nil), lr.late...), 0.99).Value
	out["loadgen.retries_per_op"] = float64(retries) / math.Max(1, float64(len(lr.late)))
	out["trace.spans_per_op"] = float64(rec.spanCount()) / ops
	return out
}

// detectTimes returns, per kill, the ms from the kill until every
// process that stayed up named the same new leader.
func (r *liveRun) detectTimes(kills []event) []float64 {
	var out []float64
	for _, k := range kills {
		var agreedAt int64
		ok := true
		var leader node.ID = node.None
		for id, cs := range r.layers.changes {
			if node.ID(id) == k.id {
				continue
			}
			// The first change after the kill away from the victim.
			i := sort.Search(len(cs), func(i int) bool { return cs[i].at > k.at })
			for i < len(cs) && cs[i].leader == k.id {
				i++
			}
			if i == len(cs) {
				ok = false
				break
			}
			if leader == node.None {
				leader = cs[i].leader
			}
			agreedAt = max(agreedAt, cs[i].at)
		}
		if ok {
			out = append(out, float64(agreedAt-k.at)/1e6)
		}
	}
	return out
}
