package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestCountSeparatesFailuresFromMismatches(t *testing.T) {
	o := newOutcome()
	if !count(o, "job", "", nil) {
		t.Error("a matching success is not counted as a success")
	}
	// A job that fails exactly as it does in process is a failed
	// operation, not a failed check.
	if count(o, "job", "", errors.New("stall")) {
		t.Error("a failed job is counted as a success")
	}
	if o.attempted != 2 || o.failed != 1 || len(o.problems) != 0 {
		t.Fatalf("attempted %d failed %d problems %v; want 2, 1, none", o.attempted, o.failed, o.problems)
	}
	// A result that differs from the in-process one fails the check too.
	if count(o, "job", "R differs", nil) {
		t.Error("a mismatch is counted as a success")
	}
	if o.attempted != 3 || o.failed != 2 || len(o.problems) != 1 {
		t.Fatalf("attempted %d failed %d problems %v; want 3, 2, one", o.attempted, o.failed, o.problems)
	}
	if line := o.result(nil); line.Correct || line.Failed != 2 || line.Attempted != 3 {
		t.Errorf("result %+v; want correct=false, 2 of 3 failed", line)
	}
}

func TestResultFailsOnMissingOrNonFiniteMetrics(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}, {"c", "ms"}}
	o := newOutcome()
	o.attempted = 1
	o.set("a", 1.5)
	o.set("b", math.Inf(1))
	line := o.result(defs)
	if line.Correct {
		t.Error("a run with a missing and an infinite metric is correct")
	}
	if got := line.Metrics["a"]; got.Value != 1.5 || got.Unit != "s" {
		t.Errorf("metric a = %+v", got)
	}
	for _, name := range []string{"b", "c"} {
		if v := line.Metrics[name].Value; v != math.MaxFloat64 {
			t.Errorf("metric %s = %v, want the largest finite float64", name, v)
		}
	}

	ok := newOutcome()
	ok.attempted = 3
	for _, d := range defs {
		ok.set(d.name, 1)
	}
	if line := ok.result(defs); !line.Correct || line.Failed != 0 || line.Attempted != 3 {
		t.Errorf("complete run: %+v", line)
	}

	none := newOutcome()
	if line := none.result(nil); line.Correct || line.Attempted < 1 {
		t.Errorf("a run that attempted nothing: %+v", line)
	}
}

func TestPacedReportsLateness(t *testing.T) {
	const interval = 5 * time.Millisecond
	var dues []time.Time
	late := paced(6, interval, func(i int, due time.Time) {
		dues = append(dues, due)
		if i == 1 {
			time.Sleep(30 * time.Millisecond) // a generator stall
		}
	})
	if len(dues) != 6 {
		t.Fatalf("%d sends, want 6", len(dues))
	}
	for i := 1; i < len(dues); i++ {
		if got := dues[i].Sub(dues[i-1]); got != interval {
			t.Errorf("due times %d and %d are %v apart, want %v", i-1, i, got, interval)
		}
	}
	// Send 2 was due 5 ms after send 1 started, which held the
	// generator for 30 ms.
	if late < 20*time.Millisecond {
		t.Errorf("lateness %v after a 30 ms stall, want at least 20 ms", late)
	}
}

func TestOpenLoopTimesFromDueAndCountsFailures(t *testing.T) {
	jobs := []*job{{}, {}, {}, {}}
	stall := 20 * time.Millisecond
	factor := func(j *job) (string, error) {
		time.Sleep(stall)
		switch j {
		case jobs[1]:
			return "", errors.New("stall")
		case jobs[2]:
			return "Q differs", nil
		}
		return "", nil
	}
	o := newOutcome()
	res := openLoop(factor, jobs, time.Millisecond, o)
	if o.attempted != 4 || o.failed != 2 || len(o.problems) != 1 || !strings.Contains(o.problems[0], "Q differs") {
		t.Fatalf("attempted %d failed %d problems %v", o.attempted, o.failed, o.problems)
	}
	for i, l := range res.latency {
		failed := i == 1 || i == 2
		switch {
		case failed && !math.IsInf(l, 1):
			t.Errorf("job %d failed but its latency is %v", i, l)
		case !failed && l < stall.Seconds():
			t.Errorf("job %d latency %v is less than its %v service time", i, l, stall)
		}
	}
}
