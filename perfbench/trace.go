package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// Xcheck is the cross-check against crowdserve's own span recorder: the
// workload driven once untraced and once with -trace -metrics.
type Xcheck struct {
	UntracedP50MS float64 `json:"untraced_p50_ms"`
	TracedP50MS   float64 `json:"traced_p50_ms"`
	Traces        int     `json:"traces"`
	// SpanMeanUS is each span name's mean total duration per trace that
	// contains it; RootSelfUS is the HTTP root span minus its children,
	// per endpoint.
	SpanMeanUS map[string]float64 `json:"span_mean_us"`
	RootSelfUS map[string]float64 `json:"root_self_us"`
	// Counters holds crowdserve's crowdkit_results_* path counters.
	Counters map[string]float64 `json:"counters"`
}

// SplitPart is one step of the blocking path of the workload's headline
// operation, in milliseconds; "remainder" is what the parts leave out.
type SplitPart struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// xcheck drives the workload (drive returns its headline timing) once
// against a plain crowdserve and once with -trace -metrics, reads the
// recorder and the results counters, and records the tracing overhead.
func (b *Bench) xcheck(args []string, prep func(p *Proc) error, drive func(p *Proc) (Summary, error)) error {
	run := func(extra ...string) (*Proc, Summary, error) {
		p, _, err := b.start(append(append([]string(nil), args...), extra...))
		if err != nil {
			return nil, Summary{}, err
		}
		if err := prep(p); err != nil {
			p.Kill()
			return nil, Summary{}, err
		}
		s, err := drive(p)
		if err != nil {
			p.Kill()
			return nil, Summary{}, err
		}
		return p, s, nil
	}
	p, plain, err := run()
	if err != nil {
		return err
	}
	p.Kill()
	if dir := argValue(args, "-data-dir"); dir != "" {
		// The traced pass starts from an empty directory too.
		args = append([]string(nil), args...)
		for i := range args {
			if args[i] == dir {
				args[i] = dir + "-traced"
			}
		}
	}
	p, traced, err := run("-trace", "-metrics")
	if err != nil {
		return err
	}
	defer p.Kill()
	x := &Xcheck{UntracedP50MS: plain.P50, TracedP50MS: traced.P50,
		SpanMeanUS: map[string]float64{}, RootSelfUS: map[string]float64{}, Counters: map[string]float64{}}
	if err := readTraces(NewConn(p.Base, &b.Saw5xx), x); err != nil {
		return err
	}
	if err := readCounters(p.Base, x); err != nil {
		return err
	}
	b.Rep.Xcheck = x
	b.layer("obs.trace_overhead_pct", 100*(traced.P50/plain.P50-1), "%")
	return nil
}

// readTraces fetches every kept trace and sums span durations by name.
func readTraces(c *Conn, x *Xcheck) error {
	defer c.Close()
	var list []server.TraceSummaryDTO
	if _, err := c.Do("GET", "/api/traces?limit=1024", nil, &list); err != nil {
		return err
	}
	perName := map[string][]float64{}
	perRoot := map[string][]float64{}
	for _, s := range list {
		var t server.TraceDTO
		if _, err := c.Do("GET", "/api/trace/"+s.TraceID, nil, &t); err != nil {
			return err
		}
		sums := map[string]float64{}
		children := map[string]float64{}
		var root *server.SpanDTO
		for i := range t.Spans {
			sp := &t.Spans[i]
			sums[sp.Name] += sp.DurationMS * 1000
			if sp.ParentID == "" {
				root = sp
			}
		}
		if root != nil {
			for _, sp := range t.Spans {
				if sp.ParentID == root.SpanID {
					children[root.SpanID] += sp.DurationMS * 1000
				}
			}
			perRoot[s.Endpoint] = append(perRoot[s.Endpoint], root.DurationMS*1000-children[root.SpanID])
		}
		for name, v := range sums {
			perName[name] = append(perName[name], v)
		}
	}
	x.Traces = len(list)
	for name, vs := range perName {
		x.SpanMeanUS[name] = mean(vs)
	}
	for ep, vs := range perRoot {
		x.RootSelfUS[ep] = mean(vs)
	}
	return nil
}

// readCounters scrapes the crowdkit_results_* counters from /metrics.
func readCounters(base string, x *Xcheck) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "crowdkit_results_") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			x.Counters[f[0]] = v
		}
	}
	return sc.Err()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// layerTimings turns the recorded spans into the per-layer metrics.
func (b *Bench) layerTimings(rec, crec *Recorder) {
	usOf := func(r *Recorder, name string) float64 { return r.MedianUS(name) }
	for _, ep := range []string{"task", "answer", "stats", "results"} {
		b.layer("server."+ep+"_us", usOf(rec, "server."+ep), "us")
		b.layer("server.net_us."+ep, usOf(rec, "net."+ep), "us")
	}
	b.layer("server.net_us.cql", usOf(crec, "net.cql"), "us")
	b.layer("server.results_encode_us", usOf(rec, "server.results_encode"), "us")
	b.layer("core.assign_us", usOf(rec, "core.assign"), "us")
	b.layer("assign.fewest_us", usOf(rec, "assign.fewest"), "us")
	b.layer("core.record_us", usOf(rec, "core.record"), "us")
	b.layer("core.view_stats_us", usOf(rec, "core.view_stats"), "us")
	b.layer("core.expire_us", usOf(rec, "core.expire"), "us")
	b.layer("durable.answer_us", usOf(rec, "durable.answer"), "us")
	b.layer("durable.snapshot_ms", usOf(rec, "durable.snapshot")/1000, "ms")
	b.layer("durable.open_ms", usOf(rec, "durable.open")/1000, "ms")
	b.layer("durable.cql_event_us", usOf(rec, "durable.cql_event"), "us")
	b.layer("truth.frompool_ms", usOf(rec, "truth.frompool")/1000, "ms")
	b.layer("truth.append_delta_us", usOf(rec, "truth.append_delta"), "us")
	b.layer("truth.onecoin_warm_ms", usOf(rec, "truth.onecoin_warm")/1000, "ms")
	b.layer("truth.onecoin_cold_ms", usOf(rec, "truth.onecoin_cold")/1000, "ms")
	b.layer("cql.parse_us", usOf(crec, "cql.parse"), "us")
	b.layer("cql.plan_us", usOf(crec, "cql.plan"), "us")
	b.layer("cql.exec_ms", usOf(crec, "cql.exec")/1000, "ms")
}

// traceCQL runs the CrowdQL layer replays on crec.
func (b *Bench) traceCQL(crec *Recorder, p *cqlPlan) error {
	if err := b.replayCQLSession(crec, p); err != nil {
		return err
	}
	ws, queries, err := b.replayCQLService(crec, p, cqlPairsPerSecond)
	if err != nil {
		return err
	}
	if queries == 0 {
		return fmt.Errorf("crowd query replay finished no query")
	}
	b.layer("cql.questions_per_query", float64(ws.questions)/float64(queries), "count")
	b.layer("cql.question_gap_ms", Median(ws.gaps), "ms")
	b.layer("cql.idle_polls_per_question", Median(ws.idleGaps), "count")
	return nil
}

// writeSpans saves the recorded spans next to the build outputs: the
// workload's own, then (crec, when not nil) those of the CrowdQL replay.
func (b *Bench) writeSpans(rec, crec *Recorder) error {
	dir := filepath.Join(filepath.Dir(b.Dir), "..", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.Workload, b.Seed))
	if err := rec.Write(base + ".spans.json"); err != nil {
		return err
	}
	if crec == nil {
		return nil
	}
	return crec.Write(base + ".cql-spans.json")
}

// assignStream turns workers into assignment requests.
func assignStream(workers []string) []assignReq {
	out := make([]assignReq, len(workers))
	for i, w := range workers {
		out[i] = assignReq{worker: w, option: i % 2}
	}
	return out
}

func toAnswers(dtos []server.AnswerDTO) []core.Answer {
	out := make([]core.Answer, len(dtos))
	for i, d := range dtos {
		out[i] = core.Answer{Task: d.Task, Worker: d.Worker, Option: d.Option}
	}
	return out
}

// addSplit records the headline p50 next to its blocking-path parts.
func (b *Bench) addSplit(p50 float64, parts ...SplitPart) {
	rest := p50
	for _, p := range parts {
		rest -= p.MS
	}
	b.Rep.Split = append([]SplitPart{{"untraced_p50", p50}}, parts...)
	b.Rep.Split = append(b.Rep.Split, SplitPart{"remainder", rest})
}

// lms reads a per-layer metric in milliseconds.
func (b *Bench) lms(name string) float64 {
	m := b.Rep.Layers[name]
	if m.Unit == "us" {
		return m.Value / 1000
	}
	return m.Value
}

func traceIngest(b *Bench) error {
	d := time.Duration(b.Seconds) * time.Second
	plan := genIngest(b.rng(1), ingestRate, ingestStats, d)
	var acked atomic.Int64
	drive := func(p *Proc) (Summary, error) {
		conns := b.newConns(p.Base, maxConns)
		defer closeConns(conns)
		ss := RunOpenLoop(ingestOps(plan, &acked), conns)
		b.Rep.Phases = append(b.Rep.Phases, PhaseOf("xcheck", ss, true))
		if _, ok := b.Rep.Layers["gen.lag_p99_ms"]; !ok {
			b.layer("gen.lag_p99_ms", Percentile(Lags(ss), 99), "ms")
		}
		return Summarize(Latencies(ss, "interaction")), nil
	}
	if err := b.xcheck(ingestFlags(b, filepath.Join(b.Dir, "xcheck")), func(*Proc) error { return nil }, drive); err != nil {
		return err
	}

	rec, crec := newRecorder(), newRecorder()
	cfg := serverConfig{tasks: ingestTasks, dataDir: filepath.Join(b.Dir, "replay"), lease: time.Minute, snap: 10 * time.Second}
	if err := b.replayServer(rec, cfg, ingestOps(plan, &acked)); err != nil {
		return err
	}
	var workers []string
	for _, o := range plan.ops {
		if !o.stats {
			workers = append(workers, o.worker)
		}
	}
	answers, err := b.replayCore(rec, ingestTasks, nil, nil, assignStream(workers))
	if err != nil {
		return err
	}
	if err := b.replayDurable(rec, ingestTasks, nil, answers); err != nil {
		return err
	}
	// Answers between two dashboard polls form one delta.
	if err := b.replayTruth(rec, ingestTasks, answers, ingestRate/ingestStats); err != nil {
		return err
	}
	if err := b.traceCQL(crec, genCQL(b.rng(3), 64)); err != nil {
		return err
	}
	b.layerTimings(rec, crec)
	b.addSplit(b.Rep.Xcheck.UntracedP50MS,
		SplitPart{"net.task", b.lms("server.net_us.task")},
		SplitPart{"server.task self", b.lms("server.task_us") - b.lms("core.assign_us") - b.lms("core.expire_us")},
		SplitPart{"core.assign", b.lms("core.assign_us")},
		SplitPart{"core.expire", b.lms("core.expire_us")},
		SplitPart{"net.answer", b.lms("server.net_us.answer")},
		SplitPart{"server.answer self", b.lms("server.answer_us") - b.lms("core.record_us") - b.lms("durable.answer_us")},
		SplitPart{"core.record", b.lms("core.record_us")},
		SplitPart{"durable.answer", b.lms("durable.answer_us")},
	)
	return b.writeSpans(rec, crec)
}

func traceResults(b *Bench) error {
	d := time.Duration(b.Seconds) * time.Second
	plan := genResults(b.rng(2), d)
	var acked atomic.Int64
	prep := func(p *Proc) error {
		c := NewConn(p.Base, &b.Saw5xx)
		defer c.Close()
		return preload(c, plan.preload)
	}
	drive := func(p *Proc) (Summary, error) {
		conns := b.newConns(p.Base, maxConns)
		defer closeConns(conns)
		ss := RunOpenLoop(resultsOps(plan, &acked), conns)
		b.Rep.Phases = append(b.Rep.Phases, PhaseOf("xcheck", ss, true))
		if _, ok := b.Rep.Layers["gen.lag_p99_ms"]; !ok {
			b.layer("gen.lag_p99_ms", Percentile(Lags(ss), 99), "ms")
		}
		return Summarize(Latencies(ss, "results")), nil
	}
	if err := b.xcheck(resultsFlags(b), prep, drive); err != nil {
		return err
	}

	rec, crec := newRecorder(), newRecorder()
	preOps := []Op{{Kind: "preload", Run: func(c *Conn) error { return preload(c, plan.preload) }}}
	if err := b.replayServer(rec, serverConfig{tasks: resultsTasks}, append(preOps, resultsOps(plan, &acked)...)); err != nil {
		return err
	}
	var stream []core.Answer
	for _, o := range plan.ops {
		if !o.poll {
			stream = append(stream, core.Answer{Task: o.answer.Task, Worker: o.answer.Worker, Option: o.answer.Option})
		}
	}
	pre := toAnswers(plan.preload)
	var probeWorkers []string
	for i := 0; i < 10*probes; i++ {
		probeWorkers = append(probeWorkers, fmt.Sprintf("probe%03d", i))
	}
	if _, err := b.replayCore(rec, resultsTasks, pre, stream, assignStream(probeWorkers)); err != nil {
		return err
	}
	if err := b.replayDurable(rec, resultsTasks, pre, stream); err != nil {
		return err
	}
	if err := b.replayTruth(rec, resultsTasks, append(pre, stream...), resultsRate/resultsPolls); err != nil {
		return err
	}
	if err := b.traceCQL(crec, genCQL(b.rng(3), 64)); err != nil {
		return err
	}
	b.layerTimings(rec, crec)
	b.addSplit(b.Rep.Xcheck.UntracedP50MS,
		SplitPart{"net.results", b.lms("server.net_us.results")},
		SplitPart{"server.results self", b.lms("server.results_us") - b.lms("truth.append_delta_us") -
			b.lms("truth.onecoin_warm_ms") - b.lms("server.results_encode_us")},
		SplitPart{"truth.append_delta", b.lms("truth.append_delta_us")},
		SplitPart{"truth.onecoin_warm", b.lms("truth.onecoin_warm_ms")},
		SplitPart{"results encode", b.lms("server.results_encode_us")},
	)
	return b.writeSpans(rec, crec)
}

func traceCrowdQL(b *Bench) error {
	p := genCQL(b.rng(3), 64)
	drive := func(proc *Proc) (Summary, error) {
		conns := b.newConns(proc.Base, maxConns)
		defer closeConns(conns)
		ph, _, crowd, ws := b.cqlDrive(conns, p, cqlPairsPerSecond*b.Seconds)
		ph.Name = "xcheck"
		b.Rep.Phases = append(b.Rep.Phases, ph)
		if _, ok := b.Rep.Layers["gen.lag_p99_ms"]; !ok {
			// The closed loops have no schedule; the worker's backoff
			// sleeps are the generator's only timed waits.
			b.layer("gen.lag_p99_ms", Percentile(ws.oversleep, 99), "ms")
		}
		return Summarize(crowd), nil
	}
	prep := func(proc *Proc) error {
		c := NewConn(proc.Base, &b.Saw5xx)
		defer c.Close()
		return cqlSetup(c, p)
	}
	if err := b.xcheck(cqlFlags(b, filepath.Join(b.Dir, "xcheck")), prep, drive); err != nil {
		return err
	}

	// Here the CrowdQL replay is the workload's own pool traffic, so one
	// recorder serves both; the pool replays then run on a pool of one
	// query's questions, answered k times by the rotating workers.
	rec := newRecorder()
	if err := b.traceCQL(rec, p); err != nil {
		return err
	}
	if err := b.replayServer(rec, serverConfig{tasks: cqlCrowdRows, dataDir: filepath.Join(b.Dir, "replay")}, nil); err != nil {
		return err
	}
	var workers []string
	for i := 0; i < cqlK*cqlCrowdRows; i++ {
		workers = append(workers, fmt.Sprintf("q%d", i%cqlWorkers+1))
	}
	answers, err := b.replayCore(rec, cqlCrowdRows, nil, nil, assignStream(workers))
	if err != nil {
		return err
	}
	if err := b.replayDurable(rec, cqlCrowdRows, nil, answers); err != nil {
		return err
	}
	if err := b.replayTruth(rec, cqlCrowdRows, answers, cqlK); err != nil {
		return err
	}
	b.layerTimings(rec, rec)
	q := b.Rep.Layers["cql.questions_per_query"].Value
	answer := b.lms("server.net_us.task") + b.lms("server.task_us") + b.lms("server.net_us.answer") + b.lms("server.answer_us")
	b.addSplit(b.Rep.Xcheck.UntracedP50MS,
		SplitPart{"question gaps (publish, notify, close, journal)", q * b.lms("cql.question_gap_ms")},
		SplitPart{"k answers per question (task + answer round trips)", q * cqlK * answer},
		SplitPart{"handle polls (net.cql + service)", b.lms("server.net_us.cql")},
	)
	return b.writeSpans(rec, nil)
}
