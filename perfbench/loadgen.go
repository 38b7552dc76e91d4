package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the load generator's connection budget: one per core of
// the two-core box the benchmark was sized on, so the generator never
// outnumbers the server's cores.
const maxConns = 2

// errRefused marks a 4xx answer: the server refused the operation. It
// counts as failed, like a transport error, but is reported apart.
var errRefused = errors.New("refused")

// Conn is one keep-alive HTTP connection to the server under test.
type Conn struct {
	base string
	c    *http.Client
	// saw5xx is set when any response had a 5xx status.
	saw5xx *atomic.Bool
	// tag, when set, marks each request before it is sent and returns
	// the callback that receives its client-observed duration.
	tag func(req *http.Request) func(time.Duration)
}

// NewConn opens a client limited to one connection.
func NewConn(base string, saw5xx *atomic.Bool) *Conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &Conn{base: base, c: &http.Client{Transport: tr, Timeout: 30 * time.Second}, saw5xx: saw5xx}
}

// Close drops the idle connection.
func (c *Conn) Close() { c.c.CloseIdleConnections() }

// Do sends one request and decodes a 200 body into out (when non-nil).
// It returns the status; 4xx wraps errRefused, 5xx and transport
// failures are plain errors.
func (c *Conn) Do(method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var done func(time.Duration)
	if c.tag != nil {
		done = c.tag(req)
	}
	t0 := time.Now()
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if done != nil {
		done(time.Since(t0))
	}
	if err != nil {
		return resp.StatusCode, err
	}
	switch {
	case resp.StatusCode >= 500:
		c.saw5xx.Store(true)
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	case resp.StatusCode >= 400:
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s: %w", method, path, resp.StatusCode, bytes.TrimSpace(raw), errRefused)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// Op is one scheduled operation of an open loop.
type Op struct {
	Kind string
	Due  time.Duration
	Run  func(c *Conn) error
}

// Schedule spreads n arrivals over d: sorted uniform times, i.e. a
// Poisson process conditioned on its count. The count is fixed so every
// run reports its tail at the same percentile.
func Schedule(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RunOpenLoop sends ops at their due times over conns, one sender per
// connection. A sender takes the next op in due order, sleeps until it
// is due and runs it; when every sender is busy the op waits, and that
// wait is part of its latency. It returns once every op has finished.
func RunOpenLoop(ops []Op, conns []*Conn) []Sample {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
	out := make([]Sample, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			var free time.Duration
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				op := ops[i]
				if d := op.Due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				s := Sample{Kind: op.Kind, Due: op.Due, Free: free, Start: time.Since(start)}
				s.Err = op.Run(c)
				s.End = time.Since(start)
				free = s.End
				out[i] = s
			}
		}(c)
	}
	wg.Wait()
	return out
}

// Phase counts one phase's operations for the report.
type Phase struct {
	Name      string  `json:"name"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Refused   int     `json:"refused"`
	LagP99MS  float64 `json:"lag_p99_ms"`
	// WaitP99MS is the p99 wait for a free connection or the generator.
	WaitP99MS float64 `json:"wait_p99_ms"`
	// Fixed marks a fixed-rate (or setup/recovery) phase, where any
	// failure fails the run; ladder rungs above capacity may fail.
	Fixed bool `json:"fixed"`
}

// Tally folds one operation outcome into the phase.
func (p *Phase) Tally(err error) {
	p.Sent++
	switch {
	case err == nil:
		p.Succeeded++
	case errors.Is(err, errRefused):
		p.Refused++
	default:
		p.Failed++
	}
}

// PhaseOf counts samples into a named phase.
func PhaseOf(name string, ss []Sample, fixed bool) Phase {
	p := Phase{Name: name, Fixed: fixed}
	for _, s := range ss {
		p.Tally(s.Err)
	}
	p.LagP99MS = Percentile(Lags(ss), 99)
	waits := make([]float64, len(ss))
	for i, s := range ss {
		waits[i] = s.WaitMS()
	}
	p.WaitP99MS = Percentile(waits, 99)
	return p
}
