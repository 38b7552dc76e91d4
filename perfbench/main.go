// Command perfbench is crowdkit's end-to-end benchmark. It launches the
// crowdserve binary as a separate process, drives one seeded workload
// over loopback sockets from at most two connections, checks the
// server's outputs, and prints a report line followed by the result
// line (the last line of standard output):
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 1 it instead replays the workload's generated operations
// in-process through each layer's public functions (server, core,
// assign, durable, truth, cql), cross-checks the split against
// crowdserve's own span recorder, and reports the per-layer metrics.
//
// Usage (run.sh builds both binaries first):
//
//	perfbench -bin crowdserve -workload ingest-65k -seed 1 -seconds 20 -trace 0
//	perfbench -compare a.out b.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Check is one correctness check; a failing check fails the run.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Env is the run environment every report carries, so two reports are
// compared only when they were measured alike. GOMAXPROCS is the
// benchmark's; crowdserve inherits the same environment.
type Env struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	Shards     int      `json:"shards"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Seed       uint64   `json:"seed"`
	Seconds    int      `json:"seconds"`
	Flags      []string `json:"crowdserve_flags"`
	// StealPct is the share of CPU time the hypervisor gave to other
	// guests during the run (/proc/stat): a run with a high share
	// measured the host as much as the code.
	StealPct float64 `json:"steal_pct"`
}

// Report is the full account of one run, printed before the result line.
type Report struct {
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Env      Env                `json:"env"`
	Phases   []Phase            `json:"phases"`
	Metrics  map[string]Metric  `json:"metrics"`
	Samples  map[string]Summary `json:"samples"`
	Ladder   []StepResult       `json:"ladder,omitempty"`
	Checks   []Check            `json:"checks"`
	Layers   map[string]Metric  `json:"layers,omitempty"`
	Split    []SplitPart        `json:"split,omitempty"`
	Xcheck   *Xcheck            `json:"xcheck,omitempty"`
	Valid    bool               `json:"valid"`
	Invalid  string             `json:"invalid_reason,omitempty"`
}

// Result is the contract line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Bench holds one run's settings and accumulating report.
type Bench struct {
	Bin      string
	Dir      string
	Seed     uint64
	Seconds  int
	Workload string
	Rep      *Report
	Saw5xx   atomic.Bool
}

// shards is the crowdserve -shards value every workload uses.
const shards = 2

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// maxLagMS is the generator lag p99 beyond which a run measured the
// generator rather than the server and is reported invalid.
const maxLagMS = 50

// workload is one traffic mix: its end-to-end run and its traced run.
// BENCHMARK.json records why each exists.
type workload struct {
	run   func(b *Bench) error
	trace func(b *Bench) error
}

var workloads = map[string]workload{
	"ingest-65k": {runIngest, traceIngest},
	"results-4k": {runResults, traceResults},
	"crowdql":    {runCrowdQL, traceCrowdQL},
}

func main() {
	var (
		bin     = flag.String("bin", ".bench_build/bin/crowdserve", "crowdserve binary under test")
		name    = flag.String("workload", "", "workload: ingest-65k, results-4k or crowdql")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "length of the measured fixed-rate phase")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
		work    = flag.String("work", ".bench_build/runs", "directory for per-run data")
		commit  = flag.String("commit", "unknown", "identifier of the code under test")
		compare = flag.Bool("compare", false, "compare two saved outputs given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two files")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp(*work, *name+"-")
	if err != nil {
		fatalf("%v", err)
	}
	b := &Bench{
		Bin: *bin, Dir: dir, Seed: *seed, Seconds: *seconds, Workload: *name,
		Rep: &Report{
			Workload: *name, Trace: *trace == 1,
			Metrics: map[string]Metric{}, Samples: map[string]Summary{},
			Env: Env{
				GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Shards: shards,
				GoVersion: runtime.Version(), Commit: *commit, Seed: *seed, Seconds: *seconds,
			},
		},
	}
	cpu0 := readCPU()
	if *trace == 1 {
		b.Rep.Layers = map[string]Metric{}
		err = w.trace(b)
	} else {
		err = w.run(b)
	}
	b.Rep.Env.StealPct = stealPct(cpu0, readCPU())
	if err != nil {
		os.RemoveAll(dir)
		fatalf("%s: %v", *name, err)
	}
	code := b.finish()
	os.RemoveAll(dir)
	os.Exit(code)
}

// finish validates the run, prints the report and the result line, and
// returns the exit code.
func (b *Bench) finish() int {
	r := b.Rep
	b.check("no 5xx response", !b.Saw5xx.Load(), "")
	attempted, failed := 0, 0
	r.Valid = true
	for _, p := range r.Phases {
		attempted += p.Sent
		failed += p.Failed + p.Refused
		if p.Fixed && p.Failed+p.Refused > 0 {
			b.check("no failed operation in phase "+p.Name, false,
				fmt.Sprintf("%d failed, %d refused of %d", p.Failed, p.Refused, p.Sent))
		}
		if p.Fixed && p.LagP99MS > maxLagMS {
			r.Valid = false
			r.Invalid = fmt.Sprintf("generator lag p99 %.1fms in phase %s exceeds %dms", p.LagP99MS, p.Name, maxLagMS)
		}
	}
	if attempted > 0 {
		r.Metrics["error_rate"] = Metric{float64(failed) / float64(attempted), "fraction"}
	}
	correct := true
	for _, c := range r.Checks {
		if !c.OK {
			correct = false
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s: %s\n", c.Name, c.Detail)
		}
	}
	if !r.Valid {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: %s\n", r.Invalid)
	}
	want := endToEnd
	src := r.Metrics
	if r.Trace {
		want = perLayer
		src = r.Layers
	}
	out := Result{Correct: correct && r.Valid, Attempted: attempted, Failed: failed, Metrics: map[string]Metric{}}
	for _, name := range want {
		m, ok := src[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", name)
			return 1
		}
		out.Metrics[name] = m
	}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	rep, _ := json.Marshal(map[string]any{"report": r})
	res, _ := json.Marshal(out)
	fmt.Println(string(rep))
	fmt.Println(string(res))
	if !out.Correct {
		return 1
	}
	return 0
}

// check records one correctness check.
func (b *Bench) check(name string, ok bool, detail string) {
	b.Rep.Checks = append(b.Rep.Checks, Check{Name: name, OK: ok, Detail: detail})
}

// metric records one end-to-end (or report-only) metric.
func (b *Bench) metric(name string, v float64, unit string) {
	b.Rep.Metrics[name] = Metric{v, unit}
}

// layer records one per-layer metric.
func (b *Bench) layer(name string, v float64, unit string) {
	b.Rep.Layers[name] = Metric{v, unit}
}

// timing records a latency sample's median and tail under name_p50_ms
// and name_tail_ms, keeping the sample size and tail percentile.
func (b *Bench) timing(name string, xs []float64) Summary {
	s := Summarize(xs)
	b.Rep.Samples[name] = s
	b.metric(name+"_p50_ms", s.P50, "ms")
	b.metric(name+"_tail_ms", s.Tail, "ms")
	return s
}

// rng derives an independent stream for one purpose from the seed.
func (b *Bench) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(b.Seed, stream))
}

// flags returns crowdserve's fixed flags followed by the workload's.
func (b *Bench) flags(extra ...string) []string {
	out := append([]string{"-seed", "42", "-shards", strconv.Itoa(shards)}, extra...)
	b.Rep.Env.Flags = out
	return out
}

// start launches crowdserve with args and a numbered log file.
func (b *Bench) start(args []string) (*Proc, time.Duration, error) {
	logs, _ := filepath.Glob(filepath.Join(b.Dir, "crowdserve-*.log"))
	return StartProc(b.Bin, args, filepath.Join(b.Dir, fmt.Sprintf("crowdserve-%d.log", len(logs))))
}

// newConns opens the generator's connections to base.
func (b *Bench) newConns(base string, n int) []*Conn {
	cs := make([]*Conn, n)
	for i := range cs {
		cs[i] = NewConn(base, &b.Saw5xx)
	}
	return cs
}

func closeConns(cs []*Conn) {
	for _, c := range cs {
		c.Close()
	}
}

// setupMedian runs setup setupReps times and keeps the last instance
// running; every earlier instance is stopped by discard. It records
// setup_s as the median duration.
func setupMedian[T any](b *Bench, setup func(i int) (T, time.Duration, error), discard func(T)) (T, error) {
	var (
		last T
		ds   []float64
	)
	for i := 0; i < setupReps; i++ {
		v, d, err := setup(i)
		if err != nil {
			if i > 0 {
				discard(last)
			}
			return last, err
		}
		if i > 0 {
			discard(last)
		}
		last = v
		ds = append(ds, d.Seconds())
	}
	sort.Float64s(ds)
	b.metric("setup_s", Median(ds), "s")
	return last, nil
}

// cpuPerOp runs phase and records crowdserve's CPU time per operation
// over it as cpu_ms_per_op; ops reports how many operations ran.
func (b *Bench) cpuPerOp(p *Proc, phase func() (ops int)) error {
	c0, err := p.CPUSeconds()
	if err != nil {
		return err
	}
	n := phase()
	c1, err := p.CPUSeconds()
	if err != nil {
		return err
	}
	if n > 0 {
		b.metric("cpu_ms_per_op", 1000*(c1-c0)/float64(n), "ms")
	}
	return nil
}

// rss records rss_mb from the serving process's VmHWM.
func (b *Bench) rss(p *Proc) error {
	mb, err := p.PeakRSSMB()
	if err != nil {
		return err
	}
	b.metric("rss_mb", mb, "MB")
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
