package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/durable"
	"repro/internal/operators"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/truth"
)

// The traced run replays a workload's generated operations in-process
// through each layer's public functions and records a span around every
// call, from the benchmark's own code: crowdserve itself is not changed.

// SpanRec is one recorded call. The replays call one layer at a time,
// so every span is a root.
type SpanRec struct {
	ID    int     `json:"id"`
	Name  string  `json:"name"`
	Start float64 `json:"start_us"`
	Dur   float64 `json:"dur_us"`
}

// Recorder keeps spans in memory; the traced run writes them out when it
// ends.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []SpanRec
}

func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Span times fn as a span named name.
func (r *Recorder) Span(name string, fn func()) {
	t0 := time.Now()
	fn()
	r.add(name, t0, time.Since(t0))
}

// add records a span that started at start and lasted d.
func (r *Recorder) add(name string, start time.Time, d time.Duration) {
	r.mu.Lock()
	r.spans = append(r.spans, SpanRec{ID: len(r.spans) + 1, Name: name, Start: us(start.Sub(r.t0)), Dur: us(d)})
	r.mu.Unlock()
}

// Durs lists the durations (µs) of the spans named name.
func (r *Recorder) Durs(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.Dur)
		}
	}
	return out
}

// MedianUS is the median duration of the spans named name.
func (r *Recorder) MedianUS(name string) float64 { return Median(r.Durs(name)) }

// Write saves every span as JSON.
func (r *Recorder) Write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// endpoint names the route a request path belongs to.
func endpoint(path string) string {
	switch {
	case strings.HasPrefix(path, "/api/cql/"):
		return "cql"
	case path == "/api/task":
		return "task"
	case path == "/api/answer":
		return "answer"
	case path == "/api/answers":
		return "answers"
	case path == "/api/stats":
		return "stats"
	case path == "/api/results":
		return "results"
	}
	return "other"
}

// inproc serves a server.Server on a loopback listener inside the
// benchmark, timing each ServeHTTP as a span "server.<endpoint>" and
// each request's transport share (client-observed minus ServeHTTP) as
// "net.<endpoint>".
type inproc struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	rec    *Recorder
	nextID atomic.Uint64
	mu     sync.Mutex
	served map[uint64]time.Duration
	done   chan struct{}
}

const reqIDHeader = "X-Bench-Req"

func newInproc(srv *server.Server, rec *Recorder) (*inproc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &inproc{srv: srv, base: "http://" + ln.Addr().String(), rec: rec,
		served: map[uint64]time.Duration{}, done: make(chan struct{})}
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		srv.ServeHTTP(w, r)
		d := time.Since(t0)
		rec.add("server."+endpoint(r.URL.Path), t0, d)
		if id, err := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64); err == nil {
			h.mu.Lock()
			h.served[id] = d
			h.mu.Unlock()
		}
	})}
	go func() { _ = h.hs.Serve(ln); close(h.done) }()
	return h, nil
}

// conn opens a client connection whose requests record their transport
// share.
func (h *inproc) conn(saw5xx *atomic.Bool) *Conn {
	c := NewConn(h.base, saw5xx)
	c.tag = func(req *http.Request) func(time.Duration) {
		id := h.nextID.Add(1)
		req.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
		ep := endpoint(req.URL.Path)
		return func(client time.Duration) {
			h.mu.Lock()
			d, ok := h.served[id]
			delete(h.served, id)
			h.mu.Unlock()
			if ok {
				h.rec.add("net."+ep, time.Now(), client-d)
			}
		}
	}
	return c
}

// close stops the listener and the server (and its store).
func (h *inproc) close() {
	_ = h.hs.Close()
	<-h.done
	h.srv.Close()
}

// demoPool builds the pool crowdserve seeds with -seed 42 -tasks n.
func demoPool(n int) *core.Pool {
	rng := stats.NewRNG(42)
	pool := core.NewPool()
	for i := 0; i < n; i++ {
		pool.MustAdd(&core.Task{
			ID: core.TaskID(i + 1), Kind: core.SingleChoice,
			Question:    fmt.Sprintf("Demo question %d: yes or no?", i+1),
			Options:     []string{"no", "yes"},
			GroundTruth: rng.Intn(2), Difficulty: rng.Beta(2, 5),
		})
	}
	return pool
}

// serverConfig mirrors one workload's crowdserve flags in-process.
type serverConfig struct {
	tasks   int
	dataDir string // "" = in-memory
	lease   time.Duration
	snap    time.Duration
	cql     bool
}

// newServer builds the in-process equivalent of crowdserve with cfg.
func newServer(cfg serverConfig) (*server.Server, error) {
	pool := demoPool(cfg.tasks)
	var budget *core.Budget
	opts := []server.Option{server.WithShards(shards), server.WithResultsWarm(true)}
	if cfg.dataDir != "" {
		budget = core.Unlimited()
		store, _, err := durable.Open(cfg.dataDir, durable.Options{
			Fsync: durable.FsyncAlways, SnapshotEvery: cfg.snap, Segments: shards})
		if err != nil {
			return nil, err
		}
		if err := server.SeedJournal(store, pool); err != nil {
			return nil, err
		}
		opts = append(opts, server.WithDurability(store))
	}
	if cfg.lease > 0 {
		opts = append(opts, server.WithLeaseTTL(cfg.lease))
	}
	if cfg.cql {
		opts = append(opts, server.WithCQL(server.CQLConfig{Seed: 42}))
	}
	return server.New(pool, assign.FewestAnswers{}, budget, nil, opts...)
}

// replayServer runs ops closed-loop through an in-process server built
// from cfg, then probes every pool endpoint the stream left out, so
// each server.* metric is measured on this workload's state.
func (b *Bench) replayServer(rec *Recorder, cfg serverConfig, ops []Op) error {
	srv, err := newServer(cfg)
	if err != nil {
		return err
	}
	h, err := newInproc(srv, rec)
	if err != nil {
		srv.Close()
		return err
	}
	defer h.close()
	c := h.conn(&b.Saw5xx)
	defer c.Close()
	ph := Phase{Name: "replay", Fixed: true}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
	for _, op := range ops {
		ph.Tally(op.Run(c))
	}
	var sink atomic.Int64
	for i := 0; i < probes; i++ {
		w := fmt.Sprintf("probe%02d", i)
		if len(rec.Durs("server.task")) < probes {
			ph.Tally(interact(c, w, i%2, &sink))
		}
		if len(rec.Durs("server.stats")) < probes {
			_, err := c.Do("GET", "/api/stats", nil, nil)
			ph.Tally(err)
		}
		if len(rec.Durs("server.results")) < probes {
			// One fresh answer first, so the poll pays a recompute.
			if cfg.tasks > 0 {
				_, err := c.Do("POST", "/api/answer", server.AnswerDTO{Task: core.TaskID(1 + i), Worker: w + "r", Option: 1}, nil)
				ph.Tally(err)
			}
			_, err := c.Do("GET", resultsPollQuery, nil, nil)
			ph.Tally(err)
		}
	}
	b.Rep.Phases = append(b.Rep.Phases, ph)
	var rs []server.ResultDTO
	if _, err := c.Do("GET", resultsPollQuery, nil, &rs); err != nil {
		return err
	}
	for i := 0; i < probes; i++ {
		rec.Span("server.results_encode", func() { _ = json.NewEncoder(io.Discard).Encode(rs) })
	}
	return nil
}

// probes is how many calls the replay makes to an endpoint the workload
// stream does not use, and the size of other fixed probe loops.
const probes = 20

// assignReq is one worker asking for a task and answering it.
type assignReq struct {
	worker string
	option int
}

// replayCore replays the workload's pool traffic on a ShardedPool and
// an unsharded Pool: records first, then assignments (lease + record).
// It returns every answer recorded after the preload, in order.
func (b *Bench) replayCore(rec *Recorder, tasks int, preload, records []core.Answer, reqs []assignReq) ([]core.Answer, error) {
	base := demoPool(tasks)
	for _, a := range preload {
		if err := base.Record(a); err != nil {
			return nil, err
		}
	}
	flat := base.Clone()
	sp := core.NewShardedPool(base, shards)
	var out []core.Answer
	for _, a := range records {
		var err error
		rec.Span("core.record", func() { err = sp.Record(a) })
		if err != nil {
			return nil, err
		}
		out = append(out, a)
		if err := flat.Record(a); err != nil {
			return nil, err
		}
	}
	var eligible []float64
	fewest := assign.FewestAnswers{}
	for i, r := range reqs {
		now := time.Now()
		rec.Span("core.expire", func() { sp.ExpireLeases(now) })
		var (
			id core.TaskID
			ok bool
		)
		rec.Span("core.assign", func() { id, ok = sp.AssignLease(fewest, r.worker, now.Add(time.Minute)) })
		if !ok {
			continue
		}
		if i%10 == 0 {
			eligible = append(eligible, float64(len(sp.EligibleFor(r.worker))))
			rec.Span("core.view_stats", func() { statsView(sp) })
		}
		a := core.Answer{Task: id, Worker: r.worker, Option: r.option}
		var err error
		rec.Span("core.record", func() { err = sp.Record(a) })
		if err != nil {
			return nil, err
		}
		out = append(out, a)
		// The policy alone, on the unsharded pool in the same state.
		var fid core.TaskID
		rec.Span("assign.fewest", func() { fid, ok = fewest.Assign(flat, r.worker) })
		if ok {
			_ = flat.Record(core.Answer{Task: fid, Worker: r.worker, Option: r.option})
		}
	}
	b.layer("core.eligible_tasks", Median(eligible), "count")
	return out, nil
}

// statsView is the /api/stats aggregation over the shards.
func statsView(sp *core.ShardedPool) server.StatsDTO {
	var st server.StatsDTO
	sp.ViewAll(func(pools []*core.Pool) {
		workers := map[string]bool{}
		for _, p := range pools {
			st.Tasks += p.Len()
			st.OpenTasks += len(p.OpenTasks())
			st.TotalAnswers += p.TotalAnswers()
			st.ActiveLeases += p.ActiveLeases()
			for _, w := range p.Workers() {
				workers[w] = true
			}
		}
		st.Workers = len(workers)
	})
	return st
}

// walBytes sums the WAL segment files under dir.
func walBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasPrefix(info.Name(), "wal") {
			n += info.Size()
		}
		return nil
	})
	return n
}

// durableAnswerCap bounds the fsync'd answers the replay times.
const durableAnswerCap = 600

// replayDurable journals the workload's tasks and answers through a
// Store with fsync always, snapshotting before each third of the
// stream, then crashes it and times recovery.
func (b *Bench) replayDurable(rec *Recorder, tasks int, preload, answers []core.Answer) error {
	dir := filepath.Join(b.Dir, "durable-replay")
	defer os.RemoveAll(dir)
	opts := durable.Options{Fsync: durable.FsyncAlways, Segments: shards}
	store, _, err := durable.Open(dir, opts)
	if err != nil {
		return err
	}
	if err := b.journal(rec, store, dir, tasks, preload, answers); err != nil {
		_ = store.Close() // the journal error is the one to report
		return err
	}
	store.Crash()
	var info *durable.RecoveryInfo
	rec.Span("durable.open", func() { store, info, err = durable.Open(dir, opts) })
	if err != nil {
		return err
	}
	b.layer("durable.replayed_records", float64(info.Replayed), "count")
	return store.Close()
}

// journal writes the replay's records into store: tasks, the preload in
// batches, the timed answers with a snapshot before each third, and one
// crowd question ledger (published, refunded, closed) per probe.
func (b *Bench) journal(rec *Recorder, store *durable.Store, dir string, tasks int, preload, answers []core.Answer) error {
	if err := server.SeedJournal(store, demoPool(tasks)); err != nil {
		return err
	}
	for i := 0; i < len(preload); i += resultsBatch {
		j := min(i+resultsBatch, len(preload))
		costs := make([]float64, j-i)
		for k := range costs {
			costs[k] = 1
		}
		if err := store.AnswerBatchDurable(preload[i:j], costs, make([]*bool, j-i)); err != nil {
			return err
		}
	}
	answers = answers[:min(len(answers), durableAnswerCap)]
	var (
		bytesPer []float64
		err      error
	)
	for part := 0; part < 3; part++ {
		rec.Span("durable.snapshot", func() { err = store.Snapshot() })
		if err != nil {
			return err
		}
		chunk := answers[part*len(answers)/3 : (part+1)*len(answers)/3]
		before := walBytes(dir)
		for _, a := range chunk {
			rec.Span("durable.answer", func() { err = store.AnswerDurable(a, 1, nil) })
			if err != nil {
				return err
			}
		}
		if len(chunk) > 0 {
			bytesPer = append(bytesPer, float64(walBytes(dir)-before)/float64(len(chunk)))
		}
	}
	b.layer("durable.wal_bytes_per_answer", Median(bytesPer), "B")
	for i := 0; i < probes; i++ {
		id := core.TaskID(tasks - i)
		events := []func() error{
			func() error { return store.CQLQuestionPublished(id, cqlK) },
			func() error { return store.CQLQuestionRefunded(id, 1) },
			func() error { return store.CQLQuestionClosed(id, 0) },
		}
		for _, ev := range events {
			rec.Span("durable.cql_event", func() { err = ev() })
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// settleRuns is how many untimed warm EM runs bring the replay's state
// close to the converged one a long-running server polls from.
const settleRuns = 2

// replayTruth builds the dataset from all answers but the last probes
// chunks, settles EM, then appends those chunks one by one with a warm
// OneCoin run after each, as the results path does between two polls.
func (b *Bench) replayTruth(rec *Recorder, tasks int, answers []core.Answer, chunk int) error {
	split := max(0, len(answers)-probes*chunk)
	pool := demoPool(tasks)
	for _, a := range answers[:split] {
		if err := pool.Record(a); err != nil {
			return err
		}
	}
	ids := pool.TaskIDs()
	var (
		ds  *truth.Dataset
		res *truth.Result
		err error
	)
	var coldIters []float64
	for i := 0; i < 3; i++ {
		rec.Span("truth.frompool", func() { ds, err = truth.FromPool(pool, ids) })
		if err != nil {
			return err
		}
		rec.Span("truth.onecoin_cold", func() { res, err = truth.OneCoinEM{}.Infer(ds) })
		if err != nil {
			return err
		}
		coldIters = append(coldIters, float64(res.Iterations))
	}
	for i := 0; i < settleRuns; i++ {
		if res, err = (truth.OneCoinEM{Warm: res.Warm}).Infer(ds); err != nil {
			return err
		}
	}
	var warmIters []float64
	deltas := answers[split:]
	for i := 0; i+chunk <= len(deltas); i += chunk {
		var nd *truth.Dataset
		rec.Span("truth.append_delta", func() { nd, err = ds.AppendDelta(deltas[i : i+chunk]) })
		if err != nil {
			return err
		}
		prev := res
		rec.Span("truth.onecoin_warm", func() { res, err = truth.OneCoinEM{Warm: prev.Warm}.Infer(nd) })
		if err != nil {
			return err
		}
		ds = nd
		warmIters = append(warmIters, float64(res.Iterations))
	}
	b.layer("truth.onecoin_cold_iters", Median(coldIters), "count")
	b.layer("truth.onecoin_warm_iters", Median(warmIters), "count")
	return nil
}

// replayCQLSession times parse, plan and execution of the machine
// aggregate on a machine-only session holding the workload's tables,
// and the optimizer's question estimate for the crowd filter.
func (b *Bench) replayCQLSession(rec *Recorder, p *cqlPlan) error {
	// A runner with no crowd behind it: planning and estimating a crowd
	// query need one attached; nothing here asks the crowd.
	s := cql.NewSession(nil, operators.NewRunner(nil, nil, stats.NewRNG(1)), nil)
	if _, err := s.ExecuteScript(p.script); err != nil {
		return err
	}
	for i := 0; i < 2*probes; i++ {
		thr := p.thr[i%len(p.thr)]
		src := p.aggSrc(thr)
		var (
			stmt cql.Statement
			err  error
		)
		rec.Span("cql.parse", func() { stmt, err = cql.Parse(src) })
		if err != nil {
			return err
		}
		sel, ok := stmt.(*cql.Select)
		if !ok {
			return fmt.Errorf("aggregate parsed as %T", stmt)
		}
		rec.Span("cql.plan", func() { _, err = s.Plan(sel, true) })
		if err != nil {
			return err
		}
		var rel interface{ Len() int }
		rec.Span("cql.exec", func() { rel, err = s.ExecuteStmt(stmt) })
		if err != nil {
			return err
		}
		if rel.Len() != len(p.want[thr]) {
			b.check("in-process aggregate equals the benchmark's own", false,
				fmt.Sprintf("v>=%d: %d groups, want %d", thr, rel.Len(), len(p.want[thr])))
		}
	}
	stmt, err := cql.Parse(p.crowd)
	if err != nil {
		return err
	}
	plan, err := s.Plan(stmt.(*cql.Select), true)
	if err != nil {
		return err
	}
	cost, err := s.EstimateCost(plan)
	if err != nil {
		return err
	}
	b.layer("cql.questions_estimated", cost.CrowdAnswers/cqlK, "count")
	return nil
}

// replayCQLService runs the crowdql traffic (machine and crowd queries,
// one worker) against an in-process CrowdQL server with a durable
// store, for the service, gateway and transport timings.
func (b *Bench) replayCQLService(rec *Recorder, p *cqlPlan, pairs int) (cqlWorkerStats, int, error) {
	srv, err := newServer(serverConfig{dataDir: filepath.Join(b.Dir, "cql-replay"), snap: 30 * time.Second, cql: true})
	if err != nil {
		return cqlWorkerStats{}, 0, err
	}
	h, err := newInproc(srv, rec)
	if err != nil {
		srv.Close()
		return cqlWorkerStats{}, 0, err
	}
	defer h.close()
	conns := []*Conn{h.conn(&b.Saw5xx), h.conn(&b.Saw5xx)}
	defer closeConns(conns)
	if err := cqlSetup(conns[0], p); err != nil {
		return cqlWorkerStats{}, 0, err
	}
	ph, _, crowd, ws := b.cqlDrive(conns, p, pairs)
	ph.Name = "cql-replay"
	b.Rep.Phases = append(b.Rep.Phases, ph)
	return ws, len(crowd), nil
}
