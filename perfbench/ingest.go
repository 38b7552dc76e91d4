package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Workload ingest-65k: workers fetch and answer tasks of a large durable
// pool at a fixed open-loop rate while a dashboard polls /api/stats; a
// rate ladder then finds capacity, and SIGKILL + restart times recovery.
const (
	ingestTasks    = 65536
	ingestRate     = 100  // interactions per second
	ingestStats    = 5    // stats polls per second
	ingestWorkers  = 4096 // Zipf(1.1) worker population
	ingestZipfS    = 1.1
	ingestLimitMS  = 25 // capacity latency limit on the tail
	ingestRungs    = 10
	ingestRung     = 3 * time.Second // length of one ladder rung
	ingestRecovers = 3
)

// ingestPlan is the generated operation stream: who asks, and when.
type ingestPlan struct {
	ops []ingestOp
}

type ingestOp struct {
	due    time.Duration
	stats  bool   // a dashboard poll instead of an interaction
	worker string // interacting worker
	option int    // the answer it gives
}

// genIngest draws n interactions (and the stats polls) over d.
func genIngest(rng *rand.Rand, rate, stats float64, d time.Duration) ingestPlan {
	zipf := rand.NewZipf(rng, ingestZipfS, 1, ingestWorkers-1)
	var p ingestPlan
	n := int(math.Round(rate * d.Seconds()))
	for _, due := range Schedule(rng, n, d) {
		p.ops = append(p.ops, ingestOp{due: due,
			worker: fmt.Sprintf("w%04d", zipf.Uint64()), option: rng.IntN(2)})
	}
	for _, due := range Schedule(rng, int(math.Round(stats*d.Seconds())), d) {
		p.ops = append(p.ops, ingestOp{due: due, stats: true})
	}
	return p
}

func ingestFlags(b *Bench, dir string) []string {
	return b.flags("-tasks", fmt.Sprint(ingestTasks), "-lease", "1m", "-data-dir", dir,
		"-fsync", "always", "-snapshot-every", "10s")
}

// interact is one worker interaction: fetch a task, answer it.
func interact(c *Conn, worker string, option int, acked *atomic.Int64) error {
	var t server.TaskDTO
	code, err := c.Do("GET", "/api/task?worker="+worker, nil, &t)
	if err != nil {
		return err
	}
	if code != 200 {
		return fmt.Errorf("GET /api/task: status %d, want a task", code)
	}
	if _, err := c.Do("POST", "/api/answer", server.AnswerDTO{Task: t.ID, Worker: worker, Option: option}, nil); err != nil {
		return err
	}
	acked.Add(1)
	return nil
}

// ingestOps turns a plan into runnable operations.
func ingestOps(p ingestPlan, acked *atomic.Int64) []Op {
	ops := make([]Op, len(p.ops))
	for i, o := range p.ops {
		if o.stats {
			ops[i] = Op{Kind: "stats", Due: o.due, Run: func(c *Conn) error {
				_, err := c.Do("GET", "/api/stats", nil, nil)
				return err
			}}
			continue
		}
		ops[i] = Op{Kind: "interaction", Due: o.due, Run: func(c *Conn) error {
			return interact(c, o.worker, o.option, acked)
		}}
	}
	return ops
}

func startIngest(b *Bench, i int) (*Proc, time.Duration, error) {
	dir := filepath.Join(b.Dir, fmt.Sprintf("data-%d", i))
	return b.start(ingestFlags(b, dir))
}

func runIngest(b *Bench) error {
	proc, err := setupMedian(b, func(i int) (*Proc, time.Duration, error) { return startIngest(b, i) },
		func(p *Proc) { p.Kill(); _ = os.RemoveAll(argValue(p.Args, "-data-dir")) })
	if err != nil {
		return err
	}
	b.Rep.Phases = append(b.Rep.Phases, Phase{Name: "setup", Sent: setupReps, Succeeded: setupReps, Fixed: true})
	conns := b.newConns(proc.Base, maxConns)
	defer func() { closeConns(conns); proc.Kill() }()
	var acked atomic.Int64

	// Fixed rate.
	d := time.Duration(b.Seconds) * time.Second
	var ss []Sample
	err = b.cpuPerOp(proc, func() int {
		ss = RunOpenLoop(ingestOps(genIngest(b.rng(1), ingestRate, ingestStats, d), &acked), conns)
		return len(Latencies(ss, "interaction"))
	})
	if err != nil {
		return err
	}
	b.Rep.Phases = append(b.Rep.Phases, PhaseOf(fmt.Sprintf("fixed-%d/s", ingestRate), ss, true))
	inter := b.timing("interaction", Latencies(ss, "interaction"))
	stats := b.timing("stats", Latencies(ss, "stats"))
	b.metric("gen.lag_p99_ms", Percentile(Lags(ss), 99), "ms")
	b.alias(inter, stats.P50)

	// Capacity ladder: each rung is a fresh open loop of interactions.
	lad := Ladder{Start: ingestRate, Factor: 1.25, Steps: ingestRungs, LimitMS: ingestLimitMS}
	capacity, steps := lad.Climb(func(rate float64) StepResult {
		ss := RunOpenLoop(ingestOps(genIngest(b.rng(uint64(100+rate)), rate, 0, ingestRung), &acked), conns)
		ph := PhaseOf(fmt.Sprintf("ladder-%g/s", rate), ss, false)
		b.Rep.Phases = append(b.Rep.Phases, ph)
		return lad.Judge(rate, ss)
	})
	b.Rep.Ladder = steps
	b.metric("capacity_rps", capacity, "req/s")
	if err := b.rss(proc); err != nil {
		return err
	}

	// Acked state before the kill.
	c := conns[0]
	var pre server.StatsDTO
	if _, err := c.Do("GET", "/api/stats", nil, &pre); err != nil {
		return err
	}
	n := float64(acked.Load())
	b.check("total_answers equals acked answers", float64(pre.TotalAnswers) == n,
		fmt.Sprintf("total_answers=%d acked=%v", pre.TotalAnswers, n))
	b.check("budget_spent equals acked answers", pre.BudgetSpent == n,
		fmt.Sprintf("budget_spent=%v acked=%v", pre.BudgetSpent, n))

	// Recovery: SIGKILL, restart on the same directory, compare.
	rec := Phase{Name: "recovery", Fixed: true}
	var recs []float64
	for i := 0; i < ingestRecovers; i++ {
		proc.Kill()
		closeConns(conns)
		p, dur, err := b.start(proc.Args)
		rec.Tally(err)
		if err != nil {
			return fmt.Errorf("restart after SIGKILL: %w", err)
		}
		proc = p
		recs = append(recs, dur.Seconds())
		conns = b.newConns(proc.Base, maxConns)
		var post server.StatsDTO
		_, err = conns[0].Do("GET", "/api/stats", nil, &post)
		rec.Tally(err)
		if err != nil {
			return err
		}
		same := post.Tasks == pre.Tasks && post.TotalAnswers == pre.TotalAnswers &&
			post.BudgetSpent == pre.BudgetSpent && post.Workers == pre.Workers && post.OpenTasks == pre.OpenTasks
		b.check(fmt.Sprintf("restart %d stats equal pre-kill acked state", i+1), same,
			fmt.Sprintf("pre=%+v post=%+v", pre, post))
	}
	b.Rep.Phases = append(b.Rep.Phases, rec)
	b.metric("recover_s", Median(recs), "s")
	return nil
}

// alias maps the workload's headline timings onto the contract's
// workload-neutral end-to-end names.
func (b *Bench) alias(main Summary, sideP50 float64) {
	b.metric("main_p50_ms", main.P50, "ms")
	b.metric("main_tail_ms", main.Tail, "ms")
	b.metric("side_p50_ms", sideP50, "ms")
}
