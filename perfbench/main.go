// Command perfbench is the repository's benchmark. One invocation runs one
// workload and prints its metrics, each by name with its unit, then a
// last line of JSON:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also records spans around every call the benchmark makes into the
// program's modules and reports the per-layer metrics instead (end-to-end
// numbers come only from untraced runs). README.md describes the
// workloads, the metrics and the run conditions.
//
//	perfbench -workload kv-read-mostly -seed 1 -seconds 17 -trace 0
//
// Every generated input — arrival times, keys, values, kill instants and
// simulator seeds — derives from -seed. The exit status is non-zero when
// any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, seconds float64, traced bool, clk *clock) (*result, error){
	"kv-write":       runKVWrite,
	"kv-read-mostly": runKVReadMostly,
	"failover":       runFailover,
	"sim-sweep":      runSimSweep,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	clk := &clock{t0: time.Now()}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "kv-write, kv-read-mostly, failover or sim-sweep")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 17, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Printf("perfbench: workload %s seed %d seconds %g trace %d nproc %d GOMAXPROCS %d\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	res, err := runner(*seed, *seconds, *trace == 1, clk)
	if err != nil {
		return err
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	table, values := endToEnd, res.e2e
	if *trace == 1 {
		table, values = perLayer, res.layer
	}
	out := make(map[string]any, len(table))
	for _, m := range table {
		v := nz(values[m.name])
		fmt.Printf("%-28s %14.6g %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	if res.rec != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv", *name, *seed))
		if err := res.rec.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %d recorded, written to %s\n", res.rec.spanCount(), path)
	}
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		return fmt.Errorf("%d output checks failed", len(res.problems))
	}
	return nil
}
