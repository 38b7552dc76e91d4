package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// merged copies a sharded pool's state into one Pool ordered the way the
// serving layer lists tasks: insertion order for a single shard, ascending
// ID order across several.
func merged(sp *ShardedPool) *Pool {
	var p *Pool
	sp.ViewAll(func(pools []*Pool) { p = MergePools(pools) })
	return p
}

func multiTask(id TaskID) *Task {
	return &Task{ID: id, Kind: MultiChoice, Options: []string{"a", "b", "c"}, GroundTruth: -1}
}

// TestRecordResubmissionCap is the regression test for the budget-drain
// bug: repeatable kinds used to accept unlimited resubmissions from one
// worker, so a retrying client could charge the budget forever on a
// single task. Now they stop at MaxRepeatAnswers.
func TestRecordResubmissionCap(t *testing.T) {
	for _, kind := range []TaskKind{MultiChoice, Collection} {
		p := NewPool()
		task := &Task{ID: 1, Kind: kind, GroundTruth: -1}
		if kind == MultiChoice {
			task.Options = []string{"a", "b", "c"}
		}
		id := p.MustAdd(task)
		for i := 0; i < MaxRepeatAnswers; i++ {
			if err := p.Record(Answer{Task: id, Worker: "w", Option: i % 3, Text: fmt.Sprintf("t%d", i)}); err != nil {
				t.Fatalf("%v: submission %d rejected: %v", kind, i+1, err)
			}
		}
		if err := p.Record(Answer{Task: id, Worker: "w", Option: 0}); err == nil {
			t.Fatalf("%v: submission %d accepted; want resubmission-cap rejection", kind, MaxRepeatAnswers+1)
		}
		if got := p.AnswerCount(id); got != MaxRepeatAnswers {
			t.Fatalf("%v: %d answers recorded, want %d", kind, got, MaxRepeatAnswers)
		}
		// A different worker is unaffected by w's cap.
		if err := p.Record(Answer{Task: id, Worker: "other", Option: 1}); err != nil {
			t.Fatalf("%v: fresh worker rejected: %v", kind, err)
		}
	}
}

func TestUnrecordReversesRecord(t *testing.T) {
	p := NewPool()
	id := p.MustAdd(binaryTask(1, 1))
	a := Answer{Task: id, Worker: "w", Option: 1}
	if err := p.Record(a); err != nil {
		t.Fatal(err)
	}
	if !p.Unrecord(a) {
		t.Fatal("Unrecord did not find the recorded answer")
	}
	if p.AnswerCount(id) != 0 {
		t.Fatalf("answer count = %d after Unrecord, want 0", p.AnswerCount(id))
	}
	if p.HasAnswered("w", id) {
		t.Fatal("worker still marked as having answered after Unrecord")
	}
	// The worker can resubmit (e.g. after the server rolled back a failed
	// journal append and the client retried).
	if err := p.Record(a); err != nil {
		t.Fatalf("resubmission after Unrecord rejected: %v", err)
	}
	// Unrecord of an answer that is not present reports false.
	if p.Unrecord(Answer{Task: id, Worker: "ghost", Option: 0}) {
		t.Fatal("Unrecord of a never-recorded answer reported true")
	}
}

func TestUnrecordRemovesMostRecentOnly(t *testing.T) {
	p := NewPool()
	id := p.MustAdd(multiTask(1))
	first := Answer{Task: id, Worker: "w", Option: 0}
	second := Answer{Task: id, Worker: "w", Option: 1}
	for _, a := range []Answer{first, second} {
		if err := p.Record(a); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Unrecord(second) {
		t.Fatal("Unrecord(second) failed")
	}
	if got := p.Answers(id); len(got) != 1 || got[0] != first {
		t.Fatalf("answers after Unrecord = %v, want just %v", got, first)
	}
	if !p.HasAnswered("w", id) {
		t.Fatal("per-worker count dropped to zero with one answer remaining")
	}
}

func TestShardIndexDeterministicAndInRange(t *testing.T) {
	for n := 1; n <= 9; n++ {
		counts := make([]int, n)
		for id := TaskID(0); id < 1000; id++ {
			i := ShardIndex(id, n)
			if i != ShardIndex(id, n) {
				t.Fatalf("ShardIndex(%d,%d) not deterministic", id, n)
			}
			if i < 0 || i >= n {
				t.Fatalf("ShardIndex(%d,%d) = %d out of range", id, n, i)
			}
			counts[i]++
		}
		// Sequential IDs should spread roughly evenly, not cluster.
		for i, c := range counts {
			if n > 1 && (c < 1000/n/2 || c > 1000/n*2) {
				t.Fatalf("shard %d/%d got %d of 1000 sequential ids; want near %d", i, n, c, 1000/n)
			}
		}
	}
}

// populatedPool builds a pool exercising every bookkeeping dimension:
// answers (including repeats), closed tasks, and outstanding leases.
func populatedPool(t *testing.T) *Pool {
	t.Helper()
	p := NewPool()
	deadline := time.Now().Add(time.Hour)
	for i := 0; i < 20; i++ {
		id := p.MustAdd(binaryTask(TaskID(i+1), i%2))
		for w := 0; w <= i%3; w++ {
			if err := p.Record(Answer{Task: id, Worker: fmt.Sprintf("w%d", w), Option: i % 2}); err != nil {
				t.Fatal(err)
			}
		}
		if i%5 == 0 {
			p.Close(id)
		} else if i%4 == 0 {
			if err := p.Lease(id, "leaser", deadline); err != nil {
				t.Fatal(err)
			}
		}
	}
	mid := p.MustAdd(multiTask(100))
	for i := 0; i < 3; i++ {
		if err := p.Record(Answer{Task: mid, Worker: "rep", Option: i}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func poolsEquivalent(t *testing.T, want, got *Pool) {
	t.Helper()
	wantIDs := append([]TaskID(nil), want.TaskIDs()...)
	gotIDs := append([]TaskID(nil), got.TaskIDs()...)
	if len(wantIDs) != len(gotIDs) {
		t.Fatalf("task count: got %d, want %d", len(gotIDs), len(wantIDs))
	}
	seen := make(map[TaskID]bool, len(gotIDs))
	for _, id := range gotIDs {
		seen[id] = true
	}
	for _, id := range wantIDs {
		if !seen[id] {
			t.Fatalf("task %d missing after roundtrip", id)
		}
		if !reflect.DeepEqual(want.Answers(id), got.Answers(id)) {
			t.Fatalf("task %d answers diverge: got %v, want %v", id, got.Answers(id), want.Answers(id))
		}
		if want.Closed(id) != got.Closed(id) {
			t.Fatalf("task %d closed flag diverges", id)
		}
		if want.LeaseCount(id) != got.LeaseCount(id) {
			t.Fatalf("task %d lease count diverges: got %d, want %d", id, got.LeaseCount(id), want.LeaseCount(id))
		}
	}
	if !reflect.DeepEqual(want.Workers(), got.Workers()) {
		t.Fatalf("workers diverge: got %v, want %v", got.Workers(), want.Workers())
	}
	for _, w := range want.Workers() {
		for _, id := range wantIDs {
			if want.HasAnswered(w, id) != got.HasAnswered(w, id) {
				t.Fatalf("HasAnswered(%s,%d) diverges", w, id)
			}
		}
	}
}

func TestSplitMergeRoundtrip(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		src := populatedPool(t)
		parts := SplitPool(src, n)
		total := 0
		for _, part := range parts {
			total += part.Len()
		}
		if total != src.Len() {
			t.Fatalf("n=%d: shards hold %d tasks, source has %d", n, total, src.Len())
		}
		merged := MergePools(parts)
		poolsEquivalent(t, src, merged)
		// Lease expiry behaves identically on the merged pool.
		wantExp := src.ExpireLeases(time.Now().Add(2 * time.Hour))
		gotExp := merged.ExpireLeases(time.Now().Add(2 * time.Hour))
		if !reflect.DeepEqual(wantExp, gotExp) {
			t.Fatalf("n=%d: expiry after roundtrip diverges: got %v, want %v", n, gotExp, wantExp)
		}
	}
}

func TestMergeSinglePreservesInsertionOrder(t *testing.T) {
	src := populatedPool(t)
	merged := MergePools([]*Pool{src})
	if !reflect.DeepEqual(src.TaskIDs(), merged.TaskIDs()) {
		t.Fatalf("single-pool merge reordered tasks: got %v, want %v", merged.TaskIDs(), src.TaskIDs())
	}
}

// TestShardedPoolMatchesUnsharded drives the same operation sequence
// through 1-shard and N-shard pools and requires identical observable
// state — the core of the -shards=N ≡ -shards=1 contract.
func TestShardedPoolMatchesUnsharded(t *testing.T) {
	build := func(n int) *ShardedPool {
		sp := NewShardedPool(nil, n)
		for i := 0; i < 30; i++ {
			task := binaryTask(0, i%2)
			id, err := sp.Add(task)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w <= i%3; w++ {
				if err := sp.Record(Answer{Task: id, Worker: fmt.Sprintf("w%d", w), Option: i % 2}); err != nil {
					t.Fatal(err)
				}
			}
			if i%5 == 0 {
				sp.Close(id)
			}
		}
		return sp
	}
	ref := build(1)
	refM := merged(ref)
	for _, n := range []int{2, 4, 8} {
		sp := build(n)
		spM := merged(sp)
		if sp.Len() != ref.Len() || spM.TotalAnswers() != refM.TotalAnswers() {
			t.Fatalf("n=%d: shape diverges: %d/%d tasks, %d/%d answers",
				n, sp.Len(), ref.Len(), spM.TotalAnswers(), refM.TotalAnswers())
		}
		if !reflect.DeepEqual(refM.Workers(), spM.Workers()) {
			t.Fatalf("n=%d: workers diverge", n)
		}
		refIDs := refM.TaskIDs()
		ids := spM.TaskIDs()
		if len(ids) != len(refIDs) {
			t.Fatalf("n=%d: id count diverges", n)
		}
		for _, id := range refIDs {
			if !reflect.DeepEqual(ref.Answers(id), sp.Answers(id)) {
				t.Fatalf("n=%d: task %d answers diverge", n, id)
			}
			if refM.Closed(id) != spM.Closed(id) {
				t.Fatalf("n=%d: task %d closed flag diverges", n, id)
			}
			if refM.OptionVotes(id) != nil && !reflect.DeepEqual(refM.OptionVotes(id), spM.OptionVotes(id)) {
				t.Fatalf("n=%d: task %d votes diverge", n, id)
			}
		}
	}
}

func TestShardedPoolAssignLease(t *testing.T) {
	sp := NewShardedPool(nil, 4)
	var ids []TaskID
	for i := 0; i < 12; i++ {
		id, err := sp.Add(binaryTask(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	deadline := time.Now().Add(time.Minute)
	got := make(map[TaskID]bool)
	// One worker can be assigned every task exactly once across shards.
	for range ids {
		id, ok := sp.AssignLease(firstOpen, "w", deadline)
		if !ok {
			t.Fatalf("assignment dried up after %d tasks, want %d", len(got), len(ids))
		}
		if got[id] {
			t.Fatalf("task %d assigned twice", id)
		}
		got[id] = true
		if sp.LeaseCount(id) != 1 {
			t.Fatalf("no lease recorded for assigned task %d", id)
		}
		if err := sp.Record(Answer{Task: id, Worker: "w", Option: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := sp.AssignLease(firstOpen, "w", deadline); ok {
		t.Fatal("worker assigned a task it already answered")
	}
	if got := merged(sp).ActiveLeases(); got != 0 {
		t.Fatalf("%d leases outstanding after all answers consumed them", got)
	}
}

func TestShardedPoolExpireLeasesDeterministic(t *testing.T) {
	sp := NewShardedPool(nil, 4)
	deadline := time.Now().Add(time.Millisecond)
	for i := 0; i < 10; i++ {
		id, err := sp.Add(binaryTask(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sp.AssignLease(firstOpen, fmt.Sprintf("w%d", i), deadline); !ok {
			t.Fatalf("assignment %d failed", i)
		}
		_ = id
	}
	exp := sp.ExpireLeases(time.Now().Add(time.Hour))
	if len(exp) != 10 {
		t.Fatalf("expired %d leases, want 10", len(exp))
	}
	for i := 1; i < len(exp); i++ {
		if exp[i].Task < exp[i-1].Task {
			t.Fatalf("expired leases not in task order: %v", exp)
		}
	}
}

func TestShardedPoolVersionSumsShards(t *testing.T) {
	sp := NewShardedPool(nil, 4)
	v0 := sp.Version()
	id, err := sp.Add(binaryTask(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	v1 := sp.Version()
	if v1 <= v0 {
		t.Fatalf("Add did not advance version: %d -> %d", v0, v1)
	}
	if err := sp.Record(Answer{Task: id, Worker: "w", Option: 0}); err != nil {
		t.Fatal(err)
	}
	if sp.Version() <= v1 {
		t.Fatal("Record did not advance version")
	}
	v2 := sp.Version()
	if !sp.Unrecord(Answer{Task: id, Worker: "w", Option: 0}) {
		t.Fatal("Unrecord failed")
	}
	if sp.Version() <= v2 {
		t.Fatal("Unrecord did not advance version (cached derived state would go stale)")
	}
}

func TestShardedPoolRecordBatch(t *testing.T) {
	sp := NewShardedPool(nil, 4)
	id1, _ := sp.Add(binaryTask(0, 0))
	id2, _ := sp.Add(binaryTask(0, 0))
	shard := sp.ShardFor(id1)
	batch := []Answer{
		{Task: id1, Worker: "w", Option: 0},
		{Task: id1, Worker: "w", Option: 1}, // duplicate: rejected
		{Task: id1, Worker: "x", Option: 0},
	}
	errs := sp.RecordBatch(shard, batch)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid batch items rejected: %v", errs)
	}
	if errs[1] == nil {
		t.Fatal("duplicate answer accepted in batch")
	}
	if sp.AnswerCount(id1) != 2 {
		t.Fatalf("answer count = %d, want 2", sp.AnswerCount(id1))
	}
	if sp.AnswerCount(id2) != 0 {
		t.Fatalf("unrelated task gained answers: %d", sp.AnswerCount(id2))
	}
}

func TestShardedPoolViewAllConsistent(t *testing.T) {
	sp := NewShardedPool(nil, 4)
	for i := 0; i < 8; i++ {
		if _, err := sp.Add(binaryTask(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	ids := merged(sp).TaskIDs()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := ids[i%8]
			_ = sp.Record(Answer{Task: id, Worker: fmt.Sprintf("bg%d", i), Option: 0})
			i++
		}
	}()
	for i := 0; i < 50; i++ {
		before := sp.Version()
		var total int
		var inView uint64
		sp.ViewAll(func(pools []*Pool) {
			for _, p := range pools {
				total += p.TotalAnswers()
			}
			inView = sp.Version()
		})
		_ = before
		// Version observed inside the view must correspond to a consistent
		// cut: re-reading it inside the same view yields the same value.
		var again uint64
		sp.ViewAll(func(pools []*Pool) { again = sp.Version() })
		if inView > again {
			t.Fatalf("version went backwards across views: %d then %d", inView, again)
		}
	}
	close(stop)
	wg.Wait()
}

func TestShardedPoolSingleShardDelegates(t *testing.T) {
	p := NewPool()
	for _, id := range []TaskID{4, 2, 5, 1, 3} {
		p.MustAdd(binaryTask(id, 0))
	}
	sp := NewShardedPool(p, 1)
	// Single shard preserves insertion order exactly (the unsharded
	// contract), not sorted order.
	want := []TaskID{4, 2, 5, 1, 3}
	if got := merged(sp).TaskIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("single-shard TaskIDs = %v", got)
	}
	if got := sp.EligibleFor("w"); !reflect.DeepEqual(got, want) {
		t.Fatalf("single-shard EligibleFor = %v", got)
	}
	if sp.NumShards() != 1 {
		t.Fatalf("NumShards = %d", sp.NumShards())
	}
}

func TestShardedPoolReadsAndVersion(t *testing.T) {
	for _, n := range []int{1, 4} {
		sp := NewShardedPool(nil, n)
		v0 := sp.Version()
		id, err := sp.Add(binaryTask(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		if sp.Version() == v0 {
			t.Fatalf("shards %d: Add did not bump the version", n)
		}
		if sp.Task(id) == nil || sp.Len() != 1 {
			t.Fatalf("shards %d: task lookup failed", n)
		}
		v1 := sp.Version()
		if err := sp.Record(Answer{Task: id, Worker: "w1", Option: 1}); err != nil {
			t.Fatal(err)
		}
		if sp.Version() == v1 {
			t.Fatalf("shards %d: Record did not bump the version", n)
		}
		v2 := sp.Version()
		// Rejected answers must not bump the version (caches stay valid).
		if err := sp.Record(Answer{Task: id, Worker: "w1", Option: 0}); err == nil {
			t.Fatalf("shards %d: duplicate answer accepted", n)
		}
		if sp.Version() != v2 {
			t.Fatalf("shards %d: rejected Record bumped the version", n)
		}
		if sp.AnswerCount(id) != 1 {
			t.Fatalf("shards %d: answer count = %d, want 1", n, sp.AnswerCount(id))
		}
		got := sp.Answers(id)
		if len(got) != 1 || got[0].Worker != "w1" {
			t.Fatalf("shards %d: Answers = %v", n, got)
		}
		// Answers hands out a copy: the caller may not alias pool state.
		got[0].Worker = "mutated"
		if sp.Answers(id)[0].Worker != "w1" {
			t.Fatalf("shards %d: Answers aliased the pool's slice", n)
		}
		sp.Close(id)
		if !merged(sp).Closed(id) || len(sp.EligibleFor("w2")) != 0 {
			t.Fatalf("shards %d: closed task still open or eligible", n)
		}
	}
}

func TestShardedPoolParallelAccess(t *testing.T) {
	sp := NewShardedPool(nil, testShards(t))
	const tasks = 40
	ids := make([]TaskID, tasks)
	for i := 0; i < tasks; i++ {
		id, err := sp.Add(binaryTask(TaskID(i+1), 1))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", w)
			for {
				id, ok := sp.Assign(firstOpen, worker)
				if !ok {
					return
				}
				if err := sp.Record(Answer{Task: id, Worker: worker, Option: 1}); err != nil {
					errCh <- err
					return
				}
				// Interleave reads with the writes.
				_ = sp.Len()
				_ = sp.EligibleFor(worker)
				sp.ViewAll(func(pools []*Pool) { _ = StatsOf(pools) })
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := merged(sp).TotalAnswers(); got != tasks*workers {
		t.Fatalf("answers = %d, want %d", got, tasks*workers)
	}
	for _, id := range ids {
		if sp.AnswerCount(id) != workers {
			t.Fatalf("task %d has %d answers", id, sp.AnswerCount(id))
		}
	}
}

// TestShardedPoolConcurrentAddSameID is the regression test for the
// concurrent-Add ID race: goroutines adding tasks under the same explicit
// ID must each get a distinct ID, and every task must be reachable under
// the ID it got. Before ID allocation and insertion were one critical
// section, a loser could be re-IDed by its shard's local counter, landing
// on a shard its new ID does not hash to or duplicating a later ID.
func TestShardedPoolConcurrentAddSameID(t *testing.T) {
	const trials, adders = 200, 16
	for trial := 0; trial < trials; trial++ {
		sp := NewShardedPool(nil, testShards(t))
		tasks := make([]*Task, adders)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range tasks {
			tasks[g] = binaryTask(7, 0)
			wg.Add(1)
			go func(task *Task) {
				defer wg.Done()
				<-start
				if _, err := sp.Add(task); err != nil {
					t.Error(err)
				}
			}(tasks[g])
		}
		close(start)
		wg.Wait()
		seen := make(map[TaskID]bool, adders)
		for _, task := range tasks {
			if seen[task.ID] {
				t.Fatalf("trial %d: ID %d handed out twice", trial, task.ID)
			}
			seen[task.ID] = true
			if sp.Task(task.ID) != task {
				t.Fatalf("trial %d: task %d not reachable by its ID", trial, task.ID)
			}
		}
		if sp.Len() != adders {
			t.Fatalf("trial %d: %d tasks, want %d", trial, sp.Len(), adders)
		}
	}
}
