package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above the reported tail: the
// tail is the highest percentile the sample supports, not a fixed p99
// that a small sample would read off its single largest value.
const minBeyond = 10

// tailGrid lists the percentiles a tail may be reported at, highest
// first. A fixed grid keeps the label stable across runs of equal size.
var tailGrid = []float64{99.99, 99.95, 99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// Summary is a latency sample reduced to its median and its tail.
type Summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	Beyond  int     `json:"tail_beyond"`
}

// rankIndex is the nearest-rank index of percentile p in a sorted sample
// of n values.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// Summarize reports the median and the highest grid percentile with at
// least minBeyond samples above it. Failed operations enter as +Inf, so
// they count as missing any latency limit. A sample too small for any
// grid percentile reports its maximum with TailPct 100.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := Summary{N: n, P50: s[rankIndex(50, n)], Tail: s[n-1], TailPct: 100}
	for _, p := range tailGrid {
		i := rankIndex(p, n)
		if n-1-i >= minBeyond {
			out.Tail, out.TailPct, out.Beyond = s[i], p, n-1-i
			break
		}
	}
	return out
}

// Percentile is the nearest-rank percentile p of xs (0 for no samples).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(p, len(s))]
}

// Median is Percentile(xs, 50).
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Sample is one open-loop operation as the generator saw it, in offsets
// from the phase start. Latency runs from Due, not from Start: a stalled
// sender delays every later operation, and that wait is the user's.
type Sample struct {
	Kind string
	Due  time.Duration
	// Free is when the sender that ran the operation finished its
	// previous one: before it, the operation waited for a connection.
	Free  time.Duration
	Start time.Duration
	End   time.Duration
	Err   error
}

// LatencyMS is the due-time latency in milliseconds, +Inf when the
// operation failed.
func (s Sample) LatencyMS() float64 {
	if s.Err != nil {
		return math.Inf(1)
	}
	return ms(s.End - s.Due)
}

// LagMS is the generator's own lateness: how long after the operation
// was due and a connection was free it started. Waiting for a busy
// connection is the server's doing and is not counted here.
func (s Sample) LagMS() float64 { return ms(s.Start - max(s.Due, s.Free)) }

// WaitMS is how long the operation waited past its due time before it
// was sent, for a connection or for the generator: the backlog.
func (s Sample) WaitMS() float64 { return ms(s.Start - s.Due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Latencies extracts the due-time latencies of one kind.
func Latencies(ss []Sample, kind string) []float64 {
	var out []float64
	for _, s := range ss {
		if s.Kind == kind {
			out = append(out, s.LatencyMS())
		}
	}
	return out
}

// Lags extracts the generator lags of every sample.
func Lags(ss []Sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.LagMS()
	}
	return out
}

// StepResult is one rung of the capacity ladder.
type StepResult struct {
	Rate    float64 `json:"rate"`
	TailMS  float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_pct"`
	// EndWaitMS is how late the step's last operations were sent; a
	// backlog that grew through the step shows here.
	EndWaitMS float64 `json:"end_wait_ms"`
	Failed    int     `json:"failed"`
	Pass      bool    `json:"pass"`
}

// Ladder is a fixed rate ladder: Start, Start*Factor, ... for at most
// Steps rungs. Factor must be at most 1.25, so capacity is resolved to
// within 25%.
type Ladder struct {
	Start  float64
	Factor float64
	Steps  int
	// LimitMS bounds both the tail latency and the end-of-step wait.
	LimitMS float64
}

// Judge decides whether one rung met the limit: tail within the limit,
// backlog not growing, nothing failed or refused.
func (l Ladder) Judge(rate float64, ss []Sample) StepResult {
	lat := make([]float64, len(ss))
	failed := 0
	for i, s := range ss {
		lat[i] = s.LatencyMS()
		if s.Err != nil {
			failed++
		}
	}
	sum := Summarize(lat)
	// The last tenth of the step shows whether the backlog drained.
	var endWait []float64
	for _, s := range ss[len(ss)-len(ss)/10:] {
		endWait = append(endWait, s.WaitMS())
	}
	r := StepResult{Rate: rate, TailMS: sum.Tail, TailPct: sum.TailPct,
		EndWaitMS: Median(endWait), Failed: failed}
	r.Pass = len(ss) > 0 && failed == 0 && sum.Tail <= l.LimitMS && r.EndWaitMS <= l.LimitMS
	return r
}

// Climb runs rungs in increasing rate until one fails or the ladder
// ends. Capacity is the highest passing rate, 0 when the first fails.
func (l Ladder) Climb(run func(rate float64) StepResult) (float64, []StepResult) {
	var (
		capacity float64
		steps    []StepResult
	)
	rate := l.Start
	for i := 0; i < l.Steps; i++ {
		r := run(rate)
		steps = append(steps, r)
		if !r.Pass {
			break
		}
		capacity = r.Rate
		// Rounding down keeps every step within Factor.
		rate = math.Floor(rate * l.Factor)
	}
	return capacity, steps
}
