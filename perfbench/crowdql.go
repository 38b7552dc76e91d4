package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/server"
)

// Workload crowdql: one CrowdQL session; a closed-loop requester
// alternates a machine GROUP BY aggregate (source text) with a prepared
// CROWDFILTER that one worker connection answers from the hidden truth.
const (
	cqlMachineRows = 2000
	cqlCrowdRows   = 40
	cqlGroups      = 12
	cqlK           = 3 // crowdserve's default redundancy
	cqlWorkers     = 5
	cqlBackoff     = time.Millisecond
	cqlSession     = "bench"
	cqlPrepared    = "keep"
	cqlQuestion    = "keep this item?"
	// cqlPairsPerSecond sizes a run: a run of --seconds s executes this
	// many query pairs per second, about its length on the two-core box
	// the benchmark was sized on. A fixed count, rather than a deadline,
	// keeps the work (and the memory it needs) the same when the box is
	// slow.
	cqlPairsPerSecond = 6
)

// cqlPlan is the generated session content and query stream.
type cqlPlan struct {
	script string           // CREATE + INSERT of both tables
	grp    []string         // machine table: grp per row
	val    []int            // machine table: v per row
	items  []string         // crowd table: item per row (id = index+1)
	keep   map[string]bool  // hidden truth per crowd item
	thr    []int            // aggregate thresholds, one per machine query
	want   map[int][][3]int // expected (count, sum, max) per group, per threshold
	names  map[int][]string // expected group order per threshold
	crowd  string           // the prepared CROWDFILTER
	aggSrc func(int) string // aggregate text for a threshold
}

func genCQL(rng *rand.Rand, queries int) *cqlPlan {
	p := &cqlPlan{keep: map[string]bool{}, want: map[int][][3]int{}, names: map[int][]string{}}
	var sb strings.Builder
	sb.WriteString("CREATE TABLE m (id INT, grp STRING, v INT);\nINSERT INTO m VALUES ")
	for i := 0; i < cqlMachineRows; i++ {
		g := fmt.Sprintf("g%02d", rng.IntN(cqlGroups))
		v := rng.IntN(1000)
		p.grp, p.val = append(p.grp, g), append(p.val, v)
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d,'%s',%d)", i+1, g, v)
	}
	sb.WriteString(";\nCREATE TABLE c (id INT, item STRING);\nINSERT INTO c VALUES ")
	for i := 0; i < cqlCrowdRows; i++ {
		item := fmt.Sprintf("item-%06x", rng.Uint32()&0xffffff)
		for p.keep[item] {
			item = fmt.Sprintf("item-%06x", rng.Uint32()&0xffffff)
		}
		p.items = append(p.items, item)
		p.keep[item] = rng.IntN(2) == 1
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d,'%s')", i+1, item)
	}
	p.script = sb.String()
	p.crowd = fmt.Sprintf("SELECT id, item FROM c WHERE CROWDFILTER('%s', item) ORDER BY id", cqlQuestion)
	p.aggSrc = func(thr int) string {
		return fmt.Sprintf("SELECT grp, COUNT(*) AS n, SUM(v) AS s, MAX(v) AS hi FROM m WHERE v >= %d GROUP BY grp ORDER BY grp", thr)
	}
	for i := 0; i < queries; i++ {
		thr := rng.IntN(900)
		p.thr = append(p.thr, thr)
		if _, ok := p.want[thr]; ok {
			continue
		}
		agg := map[string]*[3]int{}
		for j, g := range p.grp {
			if p.val[j] < thr {
				continue
			}
			a := agg[g]
			if a == nil {
				a = &[3]int{}
				agg[g] = a
			}
			a[0]++
			a[1] += p.val[j]
			a[2] = max(a[2], p.val[j])
		}
		var names []string
		for g := range agg {
			names = append(names, g)
		}
		sort.Strings(names)
		rows := make([][3]int, len(names))
		for j, g := range names {
			rows[j] = *agg[g]
		}
		p.want[thr], p.names[thr] = rows, names
	}
	return p
}

// checkAgg compares an aggregate page with the benchmark's own answer.
func (p *cqlPlan) checkAgg(thr int, rows [][]string) error {
	want, names := p.want[thr], p.names[thr]
	if len(rows) != len(want) {
		return fmt.Errorf("aggregate v>=%d: %d groups, want %d", thr, len(rows), len(want))
	}
	for i, r := range rows {
		if len(r) != 4 || r[0] != names[i] {
			return fmt.Errorf("aggregate v>=%d row %d = %v, want group %s", thr, i, r, names[i])
		}
		for j := 0; j < 3; j++ {
			got, err := strconv.ParseFloat(r[j+1], 64)
			if err != nil || got != float64(want[i][j]) {
				return fmt.Errorf("aggregate v>=%d group %s = %v, want %v", thr, names[i], r, want[i])
			}
		}
	}
	return nil
}

// checkCrowd compares the CROWDFILTER rows with the hidden truth.
func (p *cqlPlan) checkCrowd(rows [][]string) error {
	var want []string
	for i, it := range p.items {
		if p.keep[it] {
			want = append(want, strconv.Itoa(i+1))
		}
	}
	if len(rows) != len(want) {
		return fmt.Errorf("crowd filter returned %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if len(r) != 2 || r[0] != want[i] || !p.keep[r[1]] {
			return fmt.Errorf("crowd filter row %d = %v, want id %s", i, r, want[i])
		}
	}
	return nil
}

func cqlFlags(b *Bench, dir string) []string {
	return b.flags("-tasks", "0", "-cql-dir", "mem", "-data-dir", dir, "-fsync", "always")
}

// cqlBase is the session's URL prefix.
const cqlBase = "/api/cql/session/" + cqlSession

// cqlSetup creates the session, loads both tables and prepares the crowd
// query.
func cqlSetup(c *Conn, p *cqlPlan) error {
	if _, err := c.Do("POST", "/api/cql/session", server.CQLSessionDTO{Session: cqlSession}, nil); err != nil {
		return err
	}
	if _, err := cqlRun(c, server.CQLExecuteDTO{Src: p.script}, 0); err != nil {
		return err
	}
	_, err := c.Do("POST", cqlBase+"/prepare", server.CQLExecuteDTO{Name: cqlPrepared, Src: p.crowd}, nil)
	return err
}

// cqlRun executes a statement, polls the handle until it leaves
// "running" (sleeping poll between polls), and returns every row.
func cqlRun(c *Conn, req server.CQLExecuteDTO, poll time.Duration) ([][]string, error) {
	var page cql.QueryPage
	if _, err := c.Do("POST", cqlBase+"/execute", req, &page); err != nil {
		return nil, err
	}
	for page.Status == cql.QueryRunning {
		if poll > 0 {
			time.Sleep(poll)
		}
		if _, err := c.Do("GET", cqlBase+"/query/"+page.Query+"?limit=1", nil, &page); err != nil {
			return nil, err
		}
	}
	if page.Status != cql.QueryDone {
		return nil, fmt.Errorf("query %s: status %s: %s", page.Query, page.Status, page.Error)
	}
	rows := page.Rows
	// The handle's first page may be a limit-1 poll; fetch the result
	// from the start, following the cursor.
	if page.NextPageToken != "" || len(rows) < 1 || poll > 0 {
		rows = nil
		token := ""
		for {
			var pg cql.QueryPage
			if _, err := c.Do("GET", cqlBase+"/query/"+page.Query+"?page_token="+token, nil, &pg); err != nil {
				return nil, err
			}
			rows = append(rows, pg.Rows...)
			if pg.NextPageToken == "" {
				break
			}
			token = pg.NextPageToken
		}
	}
	return rows, nil
}

// cqlWorkerStats is what the worker connection observed.
type cqlWorkerStats struct {
	answers   int       // acked answers
	gaps      []float64 // ms from a question's k-th ack to the next question's first task
	idleGaps  []float64 // 204s (or already-complete repeats) per gap
	questions int       // distinct questions seen
	oversleep []float64 // ms each backoff sleep overran its 1ms
}

// cqlWorker answers crowd questions until stop closes: it rotates five
// worker IDs, backs off 1ms after a 204, and answers each question from
// the hidden truth in the row value. A question the crowd already gave
// its k answers is treated like a 204 (the crowd knows it is done).
func cqlWorker(c *Conn, keep map[string]bool, stop <-chan struct{}, errs *Phase, mu *sync.Mutex) cqlWorkerStats {
	var (
		st       cqlWorkerStats
		count    = map[core.TaskID]int{}
		last     core.TaskID
		doneAt   time.Time
		idle     int
		inGap    bool
		rotation int
	)
	tally := func(err error) {
		mu.Lock()
		errs.Tally(err)
		mu.Unlock()
	}
	for {
		select {
		case <-stop:
			return st
		default:
		}
		w := fmt.Sprintf("q%d", rotation%cqlWorkers+1)
		rotation++
		var t server.TaskDTO
		code, err := c.Do("GET", "/api/task?worker="+w, nil, &t)
		if err != nil {
			tally(err)
			time.Sleep(cqlBackoff)
			continue
		}
		if code == http.StatusNoContent || count[t.ID] >= cqlK {
			idle++
			t0 := time.Now()
			time.Sleep(cqlBackoff)
			st.oversleep = append(st.oversleep, ms(time.Since(t0)-cqlBackoff))
			continue
		}
		if t.ID != last {
			st.questions++
			if inGap {
				st.gaps = append(st.gaps, ms(time.Since(doneAt)))
				st.idleGaps = append(st.idleGaps, float64(idle))
				inGap = false
			}
			last = t.ID
		}
		item := t.Question[strings.LastIndex(t.Question, " ")+1:]
		opt := 0
		if keep[item] {
			opt = 1
		}
		_, err = c.Do("POST", "/api/answer", server.AnswerDTO{Task: t.ID, Worker: w, Option: opt}, nil)
		tally(err)
		if err != nil {
			continue
		}
		st.answers++
		count[t.ID]++
		if count[t.ID] == cqlK {
			doneAt, inGap, idle = time.Now(), true, 0
		}
	}
}

// cqlLoop is the closed-loop requester: machine aggregate, then crowd
// filter, pairs times. It returns both latency samples.
func (b *Bench) cqlLoop(c *Conn, p *cqlPlan, pairs int, ph *Phase, mu *sync.Mutex) (sql, crowd []float64) {
	tally := func(err error) {
		mu.Lock()
		ph.Tally(err)
		mu.Unlock()
	}
	for i := 0; i < pairs; i++ {
		thr := p.thr[i%len(p.thr)]
		t0 := time.Now()
		rows, err := cqlRun(c, server.CQLExecuteDTO{Src: p.aggSrc(thr)}, 0)
		if err == nil {
			sql = append(sql, ms(time.Since(t0)))
			if cerr := p.checkAgg(thr, rows); cerr != nil {
				b.check("aggregate equals the benchmark's own", false, cerr.Error())
			}
		}
		tally(err)
		t0 = time.Now()
		rows, err = cqlRun(c, server.CQLExecuteDTO{Prepared: cqlPrepared}, time.Millisecond)
		if err == nil {
			crowd = append(crowd, ms(time.Since(t0)))
			if cerr := p.checkCrowd(rows); cerr != nil {
				b.check("CROWDFILTER returns exactly the expected rows", false, cerr.Error())
			}
		}
		tally(err)
	}
	return sql, crowd
}

// startCQL launches crowdserve and sets the session up; the duration
// covers both.
func startCQL(b *Bench, p *cqlPlan, i int) (*Proc, time.Duration, error) {
	t0 := time.Now()
	proc, _, err := b.start(cqlFlags(b, fmt.Sprintf("%s/data-%d", b.Dir, i)))
	if err != nil {
		return nil, 0, err
	}
	c := NewConn(proc.Base, &b.Saw5xx)
	defer c.Close()
	if err := cqlSetup(c, p); err != nil {
		proc.Kill()
		return nil, 0, err
	}
	return proc, time.Since(t0), nil
}

// cqlDrive runs pairs requester iterations on conns[0], with the worker
// on conns[1].
func (b *Bench) cqlDrive(conns []*Conn, p *cqlPlan, pairs int) (Phase, []float64, []float64, cqlWorkerStats) {
	ph := Phase{Name: "closed-loop", Fixed: true}
	var mu sync.Mutex
	stop := make(chan struct{})
	var ws cqlWorkerStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); ws = cqlWorker(conns[1], p.keep, stop, &ph, &mu) }()
	sql, crowd := b.cqlLoop(conns[0], p, pairs, &ph, &mu)
	close(stop)
	wg.Wait()
	return ph, sql, crowd, ws
}

func runCrowdQL(b *Bench) error {
	p := genCQL(b.rng(3), 64)
	proc, err := setupMedian(b, func(i int) (*Proc, time.Duration, error) { return startCQL(b, p, i) },
		func(p *Proc) { p.Kill() })
	if err != nil {
		return err
	}
	defer proc.Kill()
	b.Rep.Phases = append(b.Rep.Phases, Phase{Name: "setup", Sent: setupReps, Succeeded: setupReps, Fixed: true})
	conns := b.newConns(proc.Base, maxConns)
	defer closeConns(conns)
	var (
		ph         Phase
		sql, crowd []float64
		ws         cqlWorkerStats
	)
	err = b.cpuPerOp(proc, func() int {
		ph, sql, crowd, ws = b.cqlDrive(conns, p, cqlPairsPerSecond*b.Seconds)
		return len(crowd)
	})
	if err != nil {
		return err
	}
	b.Rep.Phases = append(b.Rep.Phases, ph)
	s := b.timing("sql", sql)
	cq := b.timing("crowd_query", crowd)
	b.alias(cq, s.P50)
	b.metric("cql.question_gap_ms", Median(ws.gaps), "ms")
	b.metric("cql.idle_polls_per_question", Median(ws.idleGaps), "count")

	c := NewConn(proc.Base, &b.Saw5xx)
	defer c.Close()
	var st server.StatsDTO
	if _, err := c.Do("GET", "/api/stats", nil, &st); err != nil {
		return err
	}
	b.check("total_answers equals acked answers", st.TotalAnswers == ws.answers,
		fmt.Sprintf("total_answers=%d acked=%d", st.TotalAnswers, ws.answers))
	b.check("budget_spent equals acked answers", st.BudgetSpent == float64(ws.answers),
		fmt.Sprintf("budget_spent=%v acked=%d", st.BudgetSpent, ws.answers))
	b.check("every question got exactly k answers", ws.answers == cqlK*ws.questions,
		fmt.Sprintf("%d answers for %d questions", ws.answers, ws.questions))
	return b.rss(proc)
}
