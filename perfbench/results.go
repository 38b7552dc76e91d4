package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// Workload results-4k: a requester polls OneCoin results while workers
// stream answers onto a preloaded 4096-task pool. No durability, no
// leases, no /api/task: the read path beside a write stream.
const (
	resultsTasks     = 4096
	resultsWorkers   = 300
	resultsPreload   = 3   // answers per task before the loop starts
	resultsRate      = 200 // answers per second
	resultsPolls     = 10  // polls per second
	resultsBatch     = 4096
	resultsAccFloor  = 0.85 // final_accuracy floor against the hidden truth
	resultsPollQuery = "/api/results?method=onecoin"
)

// crowdModel is the benchmark's hidden truth and simulated crowd.
type crowdModel struct {
	truth []int     // truth[t-1] is task t's true label
	acc   []float64 // per-worker accuracy
	rng   *rand.Rand
	// answered[t-1] holds the workers who answered task t.
	answered []map[int]bool
}

// crowdSeed fixes the hidden truth, the crowd and every answer it gives,
// preloaded or streamed; the run seed draws the arrival times. Warm
// OneCoin EM's iteration count depends on the answers in each poll's
// delta, and with per-seed answers the results p50 of one seed differed
// from another's by up to 2.5x, so a seeded answer stream would make
// the results latency a property of the seed rather than of the code.
const crowdSeed = 42

// newCrowd draws the truth and a mixed-accuracy crowd: 60% reliable
// workers, 25% mediocre ones, 15% near-random spammers, with accuracies
// evenly spaced within each band. Answers are drawn from rng.
func newCrowd(rng *rand.Rand, tasks, workers int) *crowdModel {
	m := &crowdModel{truth: make([]int, tasks), acc: make([]float64, workers), rng: rng,
		answered: make([]map[int]bool, tasks)}
	for i := range m.truth {
		m.truth[i] = rng.IntN(2)
		m.answered[i] = map[int]bool{}
	}
	bands := []struct{ share, lo, hi float64 }{{0.6, 0.85, 0.95}, {0.25, 0.65, 0.75}, {0.15, 0.5, 0.55}}
	i := 0
	for bi, band := range bands {
		n := int(band.share * float64(workers))
		if bi == len(bands)-1 {
			n = workers - i
		}
		for j := 0; j < n; j++ {
			m.acc[i] = band.lo + (band.hi-band.lo)*(float64(j)+0.5)/float64(n)
			i++
		}
	}
	rng.Shuffle(len(m.acc), func(a, b int) { m.acc[a], m.acc[b] = m.acc[b], m.acc[a] })
	return m
}

// answer draws one answer for task (1-based) from a worker who has not
// answered it yet.
func (m *crowdModel) answer(task int) server.AnswerDTO {
	w := m.rng.IntN(len(m.acc))
	for m.answered[task-1][w] {
		w = m.rng.IntN(len(m.acc))
	}
	m.answered[task-1][w] = true
	opt := m.truth[task-1]
	if m.rng.Float64() >= m.acc[w] {
		opt = 1 - opt
	}
	return server.AnswerDTO{Task: core.TaskID(task), Worker: fmt.Sprintf("c%03d", w), Option: opt}
}

// resultsPlan is the generated stream: preload, then answers and polls.
type resultsPlan struct {
	crowd   *crowdModel
	preload []server.AnswerDTO
	ops     []resultsOp
}

type resultsOp struct {
	due    time.Duration
	poll   bool
	answer server.AnswerDTO
}

func genResults(rng *rand.Rand, d time.Duration) resultsPlan {
	fixed := rand.New(rand.NewPCG(crowdSeed, 0))
	m := newCrowd(fixed, resultsTasks, resultsWorkers)
	p := resultsPlan{crowd: m}
	for t := 1; t <= resultsTasks; t++ {
		for j := 0; j < resultsPreload; j++ {
			p.preload = append(p.preload, m.answer(t))
		}
	}
	for _, due := range Schedule(rng, int(math.Round(resultsRate*d.Seconds())), d) {
		p.ops = append(p.ops, resultsOp{due: due, answer: m.answer(1 + fixed.IntN(resultsTasks))})
	}
	// The requester's dashboard polls on a timer, at a seeded phase.
	n := int(math.Round(resultsPolls * d.Seconds()))
	every := d / time.Duration(n)
	phase := time.Duration(rng.Int64N(int64(every)))
	for i := 0; i < n; i++ {
		p.ops = append(p.ops, resultsOp{due: phase + time.Duration(i)*every, poll: true})
	}
	return p
}

func resultsFlags(b *Bench) []string {
	return b.flags("-tasks", fmt.Sprint(resultsTasks))
}

// preload uploads the plan's preload answers in batches.
func preload(c *Conn, as []server.AnswerDTO) error {
	for i := 0; i < len(as); i += resultsBatch {
		j := min(i+resultsBatch, len(as))
		var res server.BatchResultDTO
		if _, err := c.Do("POST", "/api/answers", as[i:j], &res); err != nil {
			return err
		}
		if res.Recorded != j-i {
			return fmt.Errorf("preload batch: %d of %d recorded", res.Recorded, j-i)
		}
	}
	return nil
}

func resultsOps(p resultsPlan, acked *atomic.Int64) []Op {
	ops := make([]Op, len(p.ops))
	for i, o := range p.ops {
		if o.poll {
			ops[i] = Op{Kind: "results", Due: o.due, Run: func(c *Conn) error {
				_, err := c.Do("GET", resultsPollQuery, nil, nil)
				return err
			}}
			continue
		}
		ops[i] = Op{Kind: "answer", Due: o.due, Run: func(c *Conn) error {
			if _, err := c.Do("POST", "/api/answer", o.answer, nil); err != nil {
				return err
			}
			acked.Add(1)
			return nil
		}}
	}
	return ops
}

// startResults launches crowdserve and preloads; the duration covers both.
func startResults(b *Bench, p resultsPlan) (*Proc, time.Duration, error) {
	t0 := time.Now()
	proc, _, err := b.start(resultsFlags(b))
	if err != nil {
		return nil, 0, err
	}
	c := NewConn(proc.Base, &b.Saw5xx)
	defer c.Close()
	if err := preload(c, p.preload); err != nil {
		proc.Kill()
		return nil, 0, err
	}
	return proc, time.Since(t0), nil
}

// finalAccuracy polls once more after ingest drained and checks the
// labels against the hidden truth.
func (b *Bench) finalAccuracy(c *Conn, m *crowdModel) (float64, error) {
	var rs []server.ResultDTO
	if _, err := c.Do("GET", resultsPollQuery, nil, &rs); err != nil {
		return 0, err
	}
	seen := map[core.TaskID]bool{}
	right := 0
	for _, r := range rs {
		if r.Task < 1 || int(r.Task) > len(m.truth) {
			continue
		}
		seen[r.Task] = true
		if r.Label == m.truth[r.Task-1] {
			right++
		}
	}
	b.check("results cover every task", len(seen) == len(m.truth),
		fmt.Sprintf("%d of %d tasks", len(seen), len(m.truth)))
	acc := float64(right) / float64(len(m.truth))
	b.check("final_accuracy clears the floor", acc >= resultsAccFloor,
		fmt.Sprintf("accuracy %.4f, floor %.2f", acc, resultsAccFloor))
	return acc, nil
}

func runResults(b *Bench) error {
	d := time.Duration(b.Seconds) * time.Second
	plan := genResults(b.rng(2), d)
	proc, err := setupMedian(b, func(int) (*Proc, time.Duration, error) { return startResults(b, plan) },
		func(p *Proc) { p.Kill() })
	if err != nil {
		return err
	}
	b.Rep.Phases = append(b.Rep.Phases, Phase{Name: "setup", Sent: setupReps, Succeeded: setupReps, Fixed: true})
	conns := b.newConns(proc.Base, maxConns)
	defer func() { closeConns(conns); proc.Kill() }()

	var (
		acked atomic.Int64
		ss    []Sample
	)
	err = b.cpuPerOp(proc, func() int {
		ss = RunOpenLoop(resultsOps(plan, &acked), conns)
		return len(Latencies(ss, "results"))
	})
	if err != nil {
		return err
	}
	b.Rep.Phases = append(b.Rep.Phases, PhaseOf(fmt.Sprintf("fixed-%d/s+%d/s", resultsRate, resultsPolls), ss, true))
	res := b.timing("results", Latencies(ss, "results"))
	ans := b.timing("answer", Latencies(ss, "answer"))
	b.metric("gen.lag_p99_ms", Percentile(Lags(ss), 99), "ms")
	b.alias(res, ans.P50)

	acc, err := b.finalAccuracy(conns[0], plan.crowd)
	if err != nil {
		return err
	}
	b.metric("final_accuracy", acc, "fraction")
	var st server.StatsDTO
	if _, err := conns[0].Do("GET", "/api/stats", nil, &st); err != nil {
		return err
	}
	want := len(plan.preload) + int(acked.Load())
	b.check("total_answers equals acked answers", st.TotalAnswers == want,
		fmt.Sprintf("total_answers=%d acked=%d", st.TotalAnswers, want))
	return b.rss(proc)
}
