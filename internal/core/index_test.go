package core

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
)

// fewestInFlightScan is the pre-index FewestAnswers policy, kept as the
// test reference and benchmark baseline: scan every eligible task and
// keep the first with the fewest in-flight answers. Same semantics as
// FewestInFlight, O(pool) time and a pool-sized slice per call.
func fewestInFlightScan(p *Pool, worker string) (TaskID, bool) {
	el := p.EligibleFor(worker)
	if len(el) == 0 {
		return 0, false
	}
	best := el[0]
	bestN := p.InFlight(best)
	for _, id := range el[1:] {
		if n := p.InFlight(id); n < bestN {
			best, bestN = id, n
		}
	}
	return best, true
}

var (
	indexAssigner = AssignerFunc((*Pool).FewestInFlight)
	scanAssigner  = AssignerFunc(fewestInFlightScan)
)

// checkIndex verifies the assignment index of p (if built) against a
// recount: every open task sits in exactly the bucket of its InFlight,
// closed tasks in none, the summary level mirrors the non-zero words, and
// no empty bucket trails. It also checks the O(1) counters.
func checkIndex(t *testing.T, p *Pool) {
	t.Helper()
	answers, leases := 0, 0
	for _, as := range p.answers {
		answers += len(as)
	}
	for _, m := range p.leases {
		leases += len(m)
	}
	if p.TotalAnswers() != answers || p.ActiveLeases() != leases {
		t.Fatalf("counters: answers %d leases %d, recount %d %d", p.TotalAnswers(), p.ActiveLeases(), answers, leases)
	}
	if p.OpenCount() != len(p.OpenTasks()) {
		t.Fatalf("OpenCount %d, OpenTasks %d", p.OpenCount(), len(p.OpenTasks()))
	}
	x := p.idx
	if x == nil {
		return
	}
	if x.pos == nil && !slices.IsSorted(p.order) {
		t.Fatalf("binary-search positions over unsorted order %v", p.order)
	}
	if x.pos != nil && len(x.pos) != len(p.order) {
		t.Fatalf("index maps %d positions, pool has %d tasks", len(x.pos), len(p.order))
	}
	members := make([]int, len(x.buckets))
	for i, id := range p.order {
		if got := x.position(p, id); got != i {
			t.Fatalf("task %d: index position %d, order position %d", id, got, i)
		}
		want := -1
		if !p.closed[id] {
			want = p.InFlight(id)
			members[want]++
		}
		for c := range x.buckets {
			b := &x.buckets[c]
			has := i>>6 < len(b.words) && b.words[i>>6]&(1<<(i&63)) != 0
			if has != (c == want) {
				t.Fatalf("task %d (pos %d, in-flight %d, closed %v): bucket %d membership %v",
					id, i, p.InFlight(id), p.closed[id], c, has)
			}
		}
	}
	for c := range x.buckets {
		b := &x.buckets[c]
		if b.n != members[c] {
			t.Fatalf("bucket %d: n = %d, members %d", c, b.n, members[c])
		}
		for w, word := range b.words {
			if sum := b.summary[w>>6]&(1<<(w&63)) != 0; sum != (word != 0) {
				t.Fatalf("bucket %d word %d: summary bit %v, word %#x", c, w, sum, word)
			}
		}
	}
	if n := len(x.buckets); n > 0 && x.buckets[n-1].n == 0 {
		t.Fatalf("trailing empty bucket %d", n-1)
	}
}

// opStream drives a pool through seeded random operations: add (fresh,
// explicit and colliding IDs), lease, re-lease, answer, unrecord, expire,
// release, close (including unknown IDs), Clone, and a SplitPool →
// MergePools round trip. After every operation it calls check with the
// pool now in use, which Clone and the round trip may replace.
func opStream(seed int64, steps int, check func(p *Pool)) *Pool {
	r := rand.New(rand.NewSource(seed))
	workers := []string{"a", "b", "c", "d", "e"}
	now := time.Unix(1_000, 0)
	p := NewPool()
	var held []Lease
	for step := 0; step < steps; step++ {
		w := workers[r.Intn(len(workers))]
		// IDs range past the pool so unknown tasks are exercised too.
		id := TaskID(r.Intn(p.Len() + 4))
		switch op := r.Intn(20); {
		case op < 3:
			t := binaryTask(TaskID(r.Intn(3)*r.Intn(12)), -1)
			if r.Intn(4) == 0 {
				t = multiTask(t.ID)
			}
			p.MustAdd(t)
		case op < 7:
			d := now.Add(time.Duration(r.Intn(10)) * time.Second)
			if p.Lease(id, w, d) == nil {
				held = append(held, Lease{Task: id, Worker: w, Deadline: d})
			}
		case op < 8:
			if len(held) > 0 {
				l := held[r.Intn(len(held))]
				_ = p.Lease(l.Task, l.Worker, l.Deadline.Add(time.Duration(r.Intn(10))*time.Second))
			}
		case op < 13:
			_ = p.Record(Answer{Task: id, Worker: w, Option: r.Intn(2)})
		case op < 14:
			if all := p.AllAnswers(); len(all) > 0 && r.Intn(4) > 0 {
				p.Unrecord(all[r.Intn(len(all))])
			} else {
				p.Unrecord(Answer{Task: id, Worker: w})
			}
		case op < 16:
			now = now.Add(time.Duration(r.Intn(4)) * time.Second)
			p.ExpireLeases(now)
		case op < 17:
			p.ReleaseLease(id, w)
		case op < 18:
			p.Close(id)
		case op < 19:
			if c := p.Clone(); r.Intn(2) == 0 {
				p = c
			}
		default:
			p = MergePools(SplitPool(p, 1+r.Intn(4)))
		}
		check(p)
	}
	return p
}

// TestAssignIndexMatchesScan is the safety net for the assignment index:
// over thousands of seeded op streams, FewestInFlight must pick exactly
// the task the reference scan picks, for every worker, after every
// operation, and the index must match a recount of the pool.
func TestAssignIndexMatchesScan(t *testing.T) {
	streams := 3000
	if testing.Short() {
		streams = 300
	}
	workers := []string{"a", "b", "c", "d", "e", "new"}
	mapped := map[bool]int{} // checks per position mode: map vs binary search
	for seed := int64(0); seed < int64(streams); seed++ {
		step := 0
		opStream(seed, 80, func(p *Pool) {
			step++
			// Sometimes leave a fresh copy unindexed for a few steps, so
			// the lazy build also meets pools mid-stream.
			if p.idx == nil && step%3 == 0 {
				return
			}
			for _, w := range workers {
				gotID, gotOK := p.FewestInFlight(w)
				wantID, wantOK := fewestInFlightScan(p, w)
				if gotID != wantID || gotOK != wantOK {
					t.Fatalf("seed %d step %d worker %s: index (%d,%v), scan (%d,%v)",
						seed, step, w, gotID, gotOK, wantID, wantOK)
				}
			}
			checkIndex(t, p)
			mapped[p.idx.pos != nil]++
		})
	}
	if mapped[true] == 0 || mapped[false] == 0 {
		t.Fatalf("position modes exercised: %v; want both", mapped)
	}
}

// The bitset must agree with a plain set under random sets and clears
// across several summary words (positions well past 64·64), including
// emptying and refilling, which releases and regrows its storage.
func TestAssignIndexBitset(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var b bitset
	ref := map[int]bool{}
	const span = 3 * 64 * 64
	for step := 0; step < 8000; step++ {
		i := r.Intn(span)
		if r.Intn(3) == 0 && len(ref) > 0 {
			for k := range ref {
				i = k
				break
			}
		}
		if ref[i] {
			b.clear(i)
			delete(ref, i)
		} else {
			b.set(i)
			ref[i] = true
		}
		if b.n != len(ref) {
			t.Fatalf("step %d: n = %d, want %d", step, b.n, len(ref))
		}
		from := r.Intn(span + 64)
		want := -1
		for k := range ref {
			if k >= from && (want < 0 || k < want) {
				want = k
			}
		}
		if got := b.next(from); got != want {
			t.Fatalf("step %d: next(%d) = %d, want %d", step, from, got, want)
		}
	}
}

// Copies never carry an index: journal replicas and snapshot copies must
// not pay for one.
func TestAssignIndexNotCopied(t *testing.T) {
	p := NewPool()
	for i := 1; i <= 8; i++ {
		p.MustAdd(binaryTask(TaskID(i), -1))
	}
	p.FewestInFlight("w")
	if p.idx == nil {
		t.Fatal("FewestInFlight did not build the index")
	}
	copies := append(SplitPool(p, 3), p.Clone(), MergePools([]*Pool{p}), MergePools(SplitPool(p, 2)))
	for i, c := range copies {
		if c.idx != nil {
			t.Fatalf("copy %d carries an index", i)
		}
	}
	sp := NewShardedPool(p.Clone(), 3)
	sp.ViewAll(func(pools []*Pool) {
		for i, sh := range pools {
			if sh.idx == nil {
				t.Fatalf("shard %d has no index after NewShardedPool", i)
			}
		}
	})
}

// testShards is the shard count for the concurrent tests:
// CROWDKIT_TEST_SHARDS when set, 4 otherwise.
func testShards(t *testing.T) int {
	if v := os.Getenv("CROWDKIT_TEST_SHARDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("CROWDKIT_TEST_SHARDS=%q: want a positive integer", v)
		}
		return n
	}
	return 4
}

// ShardedPool.AssignLease must hand out identical task sequences whether
// the policy walks the index or scans, through both of its passes (fresh
// leases first, then re-extensions), with answers, expiry, closes and
// late adds interleaved.
func TestAssignIndexShardedSequence(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		extensions := 0
		for seed := int64(0); seed < 40; seed++ {
			build := func() *ShardedPool {
				p := NewPool()
				for i := 1; i <= 10; i++ {
					p.MustAdd(binaryTask(TaskID(i), -1))
				}
				return NewShardedPool(p, n)
			}
			idx, scan := build(), build()
			activeLeases := func() (n int) {
				idx.ViewAll(func(ps []*Pool) { n = StatsOf(ps).ActiveLeases })
				return n
			}
			r := rand.New(rand.NewSource(seed))
			now := time.Unix(1_000, 0)
			for step := 0; step < 300; step++ {
				w := fmt.Sprintf("w%d", r.Intn(6))
				switch op := r.Intn(10); {
				case op < 6:
					leases := activeLeases()
					d := now.Add(time.Duration(1+r.Intn(5)) * time.Second)
					gotID, gotOK := idx.AssignLease(indexAssigner, w, d)
					wantID, wantOK := scan.AssignLease(scanAssigner, w, d)
					if gotID != wantID || gotOK != wantOK {
						t.Fatalf("shards %d seed %d step %d worker %s: index (%d,%v), scan (%d,%v)",
							n, seed, step, w, gotID, gotOK, wantID, wantOK)
					}
					if gotOK && activeLeases() == leases {
						extensions++
					}
					if gotOK && r.Intn(3) > 0 {
						a := Answer{Task: gotID, Worker: w, Option: r.Intn(2)}
						if e1, e2 := idx.Record(a), scan.Record(a); (e1 == nil) != (e2 == nil) {
							t.Fatalf("record diverged: %v vs %v", e1, e2)
						}
					}
				case op < 8:
					now = now.Add(time.Second)
					idx.ExpireLeases(now)
					scan.ExpireLeases(now)
				case op < 9:
					id := TaskID(1 + r.Intn(14))
					idx.Close(id)
					scan.Close(id)
				default:
					idx.Add(binaryTask(0, -1))
					scan.Add(binaryTask(0, -1))
				}
			}
		}
		if extensions == 0 {
			t.Fatalf("shards %d: no lease was ever re-extended; the second pass went untested", n)
		}
	}
}

// The lease-free Assign runs the policy under each shard's read lock, so
// FewestInFlight must only read the index there. Run under -race, any
// index write on that path (a lazy build, a cached cursor) fails this
// test; writers run alongside so reads also meet concurrent maintenance.
func TestAssignIndexConcurrentAssign(t *testing.T) {
	p := NewPool()
	for i := 1; i <= 256; i++ {
		p.MustAdd(binaryTask(TaskID(i), -1))
	}
	sp := NewShardedPool(p, testShards(t))
	deadline := time.Now().Add(time.Hour)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				w := fmt.Sprintf("r%d-%d", g, i%7)
				if id, ok := sp.Assign(indexAssigner, w); ok && sp.Task(id) == nil {
					t.Errorf("Assign returned unknown task %d", id)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				w := fmt.Sprintf("w%d-%d", g, i%5)
				if id, ok := sp.AssignLease(indexAssigner, w, deadline); ok {
					_ = sp.Record(Answer{Task: id, Worker: w, Option: 1})
				}
				if i%25 == 0 {
					sp.Close(TaskID(1 + (g*150+i)%256))
					sp.ExpireLeases(time.Now())
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCloseUnknownTaskIsNoOp is the regression test for the pre-closed
// task bug: Close of an ID with no task used to set closed[id], so a task
// added later under that ID was born closed and the stray entry stayed.
func TestCloseUnknownTaskIsNoOp(t *testing.T) {
	p := NewPool()
	p.MustAdd(binaryTask(1, -1))
	if p.Close(7) {
		t.Fatal("Close(7) reported an unknown task as closed")
	}
	if len(p.closed) != 0 {
		t.Fatalf("Close of an unknown task left closed entries %v", p.closed)
	}
	if id := p.MustAdd(binaryTask(7, -1)); p.Closed(id) {
		t.Fatal("task 7 was born closed")
	}
	if p.OpenCount() != 2 {
		t.Fatalf("OpenCount = %d, want 2", p.OpenCount())
	}

	// Through the sharded facade: no version bump, no journal record, and
	// the task added later is open and assignable.
	for _, n := range []int{1, 4} {
		sp := NewShardedPool(nil, n)
		j := &closeJournal{}
		sp.SetJournal(j)
		sp.Add(binaryTask(1, -1))
		v := sp.Version()
		sp.Close(7)
		if sp.Version() != v || len(j.closed) != 0 {
			t.Fatalf("shards %d: Close of unknown task bumped version %d→%d, journaled %v", n, v, sp.Version(), j.closed)
		}
		sp.Add(binaryTask(7, -1))
		if merged(sp).Closed(7) {
			t.Fatalf("shards %d: task 7 was born closed", n)
		}
		sp.Close(7)
		if !merged(sp).Closed(7) || len(j.closed) != 1 {
			t.Fatalf("shards %d: closing a real task: closed %v, journaled %v", n, merged(sp).Closed(7), j.closed)
		}
	}
}

type closeJournal struct{ closed []TaskID }

func (j *closeJournal) TaskAdded(*Task)          {}
func (j *closeJournal) TaskClosed(id TaskID)     { j.closed = append(j.closed, id) }
func (j *closeJournal) LeaseIssued(Lease)        {}
func (j *closeJournal) LeasesExpired(ls []Lease) {}

// statsScan is the scan-based /api/stats aggregation StatsOf replaced:
// open tasks listed, answers and leases summed per task, and workers
// collected by sorting each pool's worker list into one set.
func statsScan(pools []*Pool) PoolStats {
	var st PoolStats
	workers := make(map[string]bool)
	for _, p := range pools {
		st.Tasks += p.Len()
		st.OpenTasks += len(p.OpenTasks())
		for _, id := range p.order {
			st.TotalAnswers += p.AnswerCount(id)
			st.ActiveLeases += p.LeaseCount(id)
		}
		for _, w := range p.Workers() {
			workers[w] = true
		}
	}
	st.Workers = len(workers)
	return st
}

// StatsOf must report exactly what the scan-based aggregation reports,
// over random pool histories split into 1, 2 and 4 shards, read both from
// split pools and through a live ShardedPool.
func TestStatsOfMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		p := opStream(seed, 120, func(*Pool) {})
		for _, n := range []int{1, 2, 4} {
			parts := SplitPool(p, n)
			if got, want := StatsOf(parts), statsScan(parts); got != want {
				t.Fatalf("seed %d shards %d: StatsOf %+v, scan %+v", seed, n, got, want)
			}
			NewShardedPool(MergePools(parts), n).ViewAll(func(pools []*Pool) {
				if got, want := StatsOf(pools), statsScan(pools); got != want {
					t.Fatalf("seed %d shards %d (live): StatsOf %+v, scan %+v", seed, n, got, want)
				}
			})
		}
	}
}

// /api/stats under concurrent writers: StatsOf reads only counters and
// answer maps under the read locks, and must agree with the scan on the
// final state.
func TestStatsOfConcurrent(t *testing.T) {
	p := NewPool()
	for i := 1; i <= 128; i++ {
		p.MustAdd(binaryTask(TaskID(i), -1))
	}
	sp := NewShardedPool(p, testShards(t))
	deadline := time.Now().Add(time.Hour)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := fmt.Sprintf("w%d-%d", g, i%9)
				if id, ok := sp.AssignLease(indexAssigner, w, deadline); ok && i%2 == 0 {
					_ = sp.Record(Answer{Task: id, Worker: w, Option: 0})
				}
				if i%40 == 0 {
					sp.Close(TaskID(1 + i))
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			sp.ViewAll(func(pools []*Pool) {
				if st := StatsOf(pools); st.Tasks != 128 || st.OpenTasks > 128 {
					t.Errorf("inconsistent stats %+v", st)
				}
			})
		}
	}()
	wg.Wait()
	sp.ViewAll(func(pools []*Pool) {
		if got, want := StatsOf(pools), statsScan(pools); got != want {
			t.Fatalf("StatsOf %+v, scan %+v", got, want)
		}
	})
}
