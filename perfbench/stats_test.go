package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"
)

// seq returns 1, 2, ..., n.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
	}{
		{1000, 99},   // rank 990: 10 beyond
		{999, 98},    // p99 would leave 9
		{2000, 99.5}, // rank 1990: 10 beyond
		{250, 95},
		{72, 80},
		{36, 50},
		{5, 100}, // too small for any grid percentile: the maximum
	}
	for _, c := range cases {
		s := Summarize(seq(c.n))
		if s.TailPct != c.wantPct {
			t.Errorf("n=%d: tail at p%v, want p%v", c.n, s.TailPct, c.wantPct)
		}
		if c.wantPct < 100 && s.Beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want >= %d", c.n, s.Beyond, minBeyond)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond != s.Beyond && c.wantPct < 100 {
			t.Errorf("n=%d: reported %d beyond, counted %d", c.n, s.Beyond, beyond)
		}
	}
	if s := Summarize(seq(1000)); s.P50 != 500 || s.Tail != 990 {
		t.Errorf("n=1000: p50=%v tail=%v, want 500 and 990", s.P50, s.Tail)
	}
}

func TestFailedOperationsCountAsOverAnyLimit(t *testing.T) {
	xs := seq(1000)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1) // 11 failures push the p99 rank into them
	}
	if s := Summarize(xs); !math.IsInf(s.Tail, 1) {
		t.Errorf("tail with 11 failures = %v, want +Inf", s.Tail)
	}
}

func TestDueTimeLatencyUnderStalledSender(t *testing.T) {
	// One sender, ops due every 10ms; the first op stalls for 100ms. Every
	// op due during the stall waits for it: its latency runs from its due
	// time, and the wait is the server's (connection busy), not the
	// generator's.
	ms10 := 10 * time.Millisecond
	stall := 100 * time.Millisecond
	var ss []Sample
	free := time.Duration(0)
	for i := 0; i < 10; i++ {
		due := time.Duration(i) * ms10
		start := max(due, free)
		work := time.Millisecond
		if i == 0 {
			work = stall
		}
		s := Sample{Kind: "op", Due: due, Free: free, Start: start, End: start + work}
		free = s.End
		ss = append(ss, s)
	}
	lat := Latencies(ss, "op")
	if lat[0] != 100 {
		t.Errorf("stalled op latency = %v, want 100", lat[0])
	}
	// Op 5 was due at 50ms, sent at 100ms+4ms of queue, done 1ms later.
	if want := float64(100 + 4 + 1 - 50); lat[5] != want {
		t.Errorf("queued op latency = %v, want %v", lat[5], want)
	}
	for i, s := range ss {
		if s.LagMS() != 0 {
			t.Errorf("op %d: generator lag %v, want 0 (the wait was for the connection)", i, s.LagMS())
		}
		if i > 0 && i < 10 && s.WaitMS() <= 0 {
			t.Errorf("op %d: wait %v, want > 0 behind the stall", i, s.WaitMS())
		}
	}
	// A generator that wakes 3ms late with the connection free lags 3ms.
	late := Sample{Due: 50 * time.Millisecond, Free: 20 * time.Millisecond, Start: 53 * time.Millisecond}
	if late.LagMS() != 3 {
		t.Errorf("late generator lag = %v, want 3", late.LagMS())
	}
}

func TestRunOpenLoopTimesFromDue(t *testing.T) {
	// A real open loop with one connection: the first op blocks 50ms, so
	// the next three (due at 0-3ms) wait and their latency includes it.
	ops := []Op{{Kind: "op", Due: 0, Run: func(*Conn) error { time.Sleep(50 * time.Millisecond); return nil }}}
	for i := 1; i <= 3; i++ {
		ops = append(ops, Op{Kind: "op", Due: time.Duration(i) * time.Millisecond, Run: func(*Conn) error { return nil }})
	}
	ops = append(ops, Op{Kind: "op", Due: 4 * time.Millisecond, Run: func(*Conn) error { return errRefused }})
	ss := RunOpenLoop(ops, []*Conn{nil})
	for i, s := range ss[1:4] {
		if s.LatencyMS() < 45 {
			t.Errorf("op %d latency %vms, want it to include the 50ms stall", i+1, s.LatencyMS())
		}
	}
	ph := PhaseOf("p", ss, true)
	if ph.Sent != 5 || ph.Succeeded != 4 || ph.Refused != 1 || ph.Failed != 0 {
		t.Errorf("phase counts = %+v", ph)
	}
}

func TestLadderStopsAtFirstFailingRung(t *testing.T) {
	l := Ladder{Start: 100, Factor: 1.25, Steps: 10, LimitMS: 25}
	var rates []float64
	capacity, steps := l.Climb(func(rate float64) StepResult {
		rates = append(rates, rate)
		return StepResult{Rate: rate, Pass: rate < 200}
	})
	if capacity != 195 {
		t.Errorf("capacity = %v, want 195", capacity)
	}
	if len(steps) != 5 || rates[len(rates)-1] != 243 {
		t.Errorf("rungs run = %v, want it to stop after the first failure at 243", rates)
	}
	for i := 1; i < len(rates); i++ {
		if r := rates[i] / rates[i-1]; r > 1.25 {
			t.Errorf("rungs %v and %v are %.3fx apart, more than 25%%", rates[i-1], rates[i], r)
		}
	}
}

func TestLadderEnds(t *testing.T) {
	l := Ladder{Start: 100, Factor: 1.25, Steps: 4, LimitMS: 25}
	n := 0
	capacity, steps := l.Climb(func(rate float64) StepResult { n++; return StepResult{Rate: rate, Pass: true} })
	if n != 4 || len(steps) != 4 || capacity != 195 {
		t.Errorf("all-pass ladder ran %d rungs, capacity %v; want 4 and 195", n, capacity)
	}
	capacity, _ = l.Climb(func(rate float64) StepResult { return StepResult{Rate: rate} })
	if capacity != 0 {
		t.Errorf("capacity when the first rung fails = %v, want 0", capacity)
	}
}

func TestLadderJudge(t *testing.T) {
	l := Ladder{LimitMS: 25}
	mk := func(lat time.Duration, err error) []Sample {
		var ss []Sample
		for i := 0; i < 100; i++ {
			d := time.Duration(i) * time.Millisecond
			ss = append(ss, Sample{Due: d, Start: d, End: d + lat})
		}
		ss[50].Err = err
		return ss
	}
	if r := l.Judge(100, mk(5*time.Millisecond, nil)); !r.Pass {
		t.Errorf("fast rung failed: %+v", r)
	}
	if r := l.Judge(100, mk(30*time.Millisecond, nil)); r.Pass {
		t.Errorf("slow rung passed: %+v", r)
	}
	if r := l.Judge(100, mk(time.Millisecond, errors.New("refused"))); r.Pass || r.Failed != 1 {
		t.Errorf("rung with a failure passed: %+v", r)
	}
	// A backlog that grows through the rung fails it even with a low tail:
	// the last tenth waits 40ms to be sent.
	ss := mk(time.Millisecond, nil)
	for i := 90; i < 100; i++ {
		ss[i].Start += 40 * time.Millisecond
		ss[i].End = ss[i].Start + time.Millisecond
	}
	if r := l.Judge(100, ss); r.Pass {
		t.Errorf("growing backlog passed: %+v", r)
	}
}

func TestComparableRefusesDifferentParallelism(t *testing.T) {
	a := &Report{Workload: "crowdql", Env: Env{GOMAXPROCS: 2, Shards: 2}}
	b := &Report{Workload: "crowdql", Env: Env{GOMAXPROCS: 8, Shards: 2}}
	if comparable(a, b) == nil {
		t.Error("compared reports at GOMAXPROCS 2 and 8")
	}
	b.Env.GOMAXPROCS, b.Env.Shards = 2, 4
	if comparable(a, b) == nil {
		t.Error("compared reports at 2 and 4 shards")
	}
	b.Env.Shards = 2
	if err := comparable(a, b); err != nil {
		t.Errorf("alike reports refused: %v", err)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists the runs print in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit, Better string }, want []string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i] {
				t.Errorf("%s[%d] = %s, want %s", what, i, m.Name, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
		}
	}
}
