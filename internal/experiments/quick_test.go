package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// These are smoke-and-shape tests for the experiment drivers not covered
// elsewhere, run at Quick scale.

func TestE3StabilizationGrowsWithGST(t *testing.T) {
	tab := E3StabilizationVsGST(Opts{Quick: true, Seeds: 2})
	// For the core algorithm, mean stabilization at the largest GST must
	// exceed the one at GST=0.
	var first, last float64
	for _, row := range tab.Rows {
		if row[1] != "core" {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "η"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[2], err)
		}
		if first == 0 && row[0] == "0" {
			first = v + 1 // avoid 0 sentinel
		}
		last = v
	}
	if last <= first {
		t.Fatalf("stabilization did not grow with GST: first=%v last=%v", first, last)
	}
	// Every cell converged.
	for _, row := range tab.Rows {
		if !strings.HasSuffix(row[4], "/2") || !strings.HasPrefix(row[4], "2") {
			t.Fatalf("cell %v did not converge in all seeds", row)
		}
	}
}

func TestE4RecoveryLatencyBounded(t *testing.T) {
	tab := E4CrashRecovery(Opts{Quick: true, Seeds: 2})
	for _, row := range tab.Rows {
		if row[4] == "FAILED" {
			t.Fatalf("row %v failed to re-elect", row)
		}
		lat, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "ms"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[2], err)
		}
		// Re-election is governed by the ~30ms base timeout, far below
		// 100ms for every algorithm and size.
		if lat <= 0 || lat > 100 {
			t.Fatalf("row %v: latency %vms out of range", row, lat)
		}
	}
}

func TestE12CommitDisseminationCounts(t *testing.T) {
	// Exact simulator counts, n=5, 30 commands (quick). While commands
	// stream, an instance costs 2(n−1) = 8 messages from the leader and
	// 2(n−1)+2 = 10 from followers, one or two of them alternating; the
	// idle tail costs a LEARN and a DECIDE per replica that did not hear
	// the last decision: all four followers after leader-origin load, the
	// three non-forwarders after follower-origin load.
	tab := E12CommitDissemination(Opts{Quick: true, Seeds: 1})
	want := map[string][]string{ // instances, load msgs/instance, REQ, LEARN, tail msgs
		"leader-origin streaming":   {"30", "8.00", "0", "4", "8"},
		"follower-origin streaming": {"30", "10.00", "30", "3", "6"},
		"two-origin streaming":      {"30", "10.00", "30", "3", "6"},
		"burst-then-idle":           {"3", "8.00", "0", "4", "8"},
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(want))
	}
	for _, row := range tab.Rows {
		got := []string{row[1], row[2], row[3], row[7], row[8]}
		if w := want[row[0]]; !reflect.DeepEqual(got, w) {
			t.Errorf("%s: instances, load msgs/instance, REQ, LEARN, tail = %v, want %v", row[0], got, w)
		}
	}
}

func TestE13RebuffRepairsPartition(t *testing.T) {
	tab := E13PartitionHeal(Opts{Quick: true, Seeds: 1})
	byAlgo := map[string][]string{}
	for _, row := range tab.Rows {
		byAlgo[row[0]] = row
	}
	if byAlgo["core"][1] != "no" {
		t.Fatalf("base core unexpectedly recovered: %v", byAlgo["core"])
	}
	if byAlgo["core-rebuff"][1] != "yes" || byAlgo["core-rebuff"][2] != "1" {
		t.Fatalf("rebuff did not repair: %v", byAlgo["core-rebuff"])
	}
}
