package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ShardIndex maps a task to one of n shards by hashing its ID (splitmix64
// finalizer, so dense sequential IDs spread evenly instead of clustering).
// Every layer that partitions by task — the sharded serving pool, the
// segmented WAL — must use this same function, so a task's answers, its
// lock, and its journal segment always agree.
func ShardIndex(id TaskID, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// SplitPool partitions p into n pools by ShardIndex of each task, deep-
// copying the bookkeeping (answers, per-worker counts, closed flags,
// leases) so the shards and the source never alias mutable state. Task
// pointers are shared — tasks are immutable once added. Relative insertion
// order is preserved within each shard.
func SplitPool(p *Pool, n int) []*Pool {
	out := make([]*Pool, n)
	for i := range out {
		out[i] = NewPool()
		out[i].nextID = p.nextID
	}
	for _, id := range p.order {
		sp := out[ShardIndex(id, n)]
		sp.tasks[id] = p.tasks[id]
		sp.order = append(sp.order, id)
		if as := p.answers[id]; len(as) > 0 {
			sp.answers[id] = append([]Answer(nil), as...)
			sp.nAnswers += len(as)
		}
		if p.closed[id] {
			sp.closed[id] = true
		}
		if m := p.leases[id]; len(m) > 0 {
			cm := make(map[string]time.Time, len(m))
			for w, d := range m {
				cm[w] = d
				sp.pushLeaseEntry(leaseEntry{deadline: d, task: id, worker: w})
			}
			sp.leases[id] = cm
			sp.nLeases += len(cm)
		}
	}
	for w, m := range p.perWorker {
		for id, c := range m {
			sp := out[ShardIndex(id, n)]
			wt := sp.perWorker[w]
			if wt == nil {
				wt = make(map[TaskID]int)
				sp.perWorker[w] = wt
			}
			wt[id] = c
		}
	}
	return out
}

// MergePools combines disjoint pools (e.g. the shards of a SplitPool, or
// the per-segment replicas of a segmented WAL) into one pool ordered by
// ascending task ID — the deterministic order a sharded deployment
// presents regardless of how adds interleaved across shards. A single
// input is deep-copied with its insertion order intact, so the unsharded
// path round-trips byte-identically.
func MergePools(pools []*Pool) *Pool {
	if len(pools) == 1 {
		return pools[0].Clone()
	}
	out := NewPool()
	owner := make(map[TaskID]*Pool)
	ids := make([]TaskID, 0)
	for _, p := range pools {
		for _, id := range p.order {
			owner[id] = p
			ids = append(ids, id)
		}
		if p.nextID > out.nextID {
			out.nextID = p.nextID
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := owner[id]
		out.tasks[id] = p.tasks[id]
		out.order = append(out.order, id)
		if as := p.answers[id]; len(as) > 0 {
			out.answers[id] = append([]Answer(nil), as...)
			out.nAnswers += len(as)
		}
		if p.closed[id] {
			out.closed[id] = true
		}
		if m := p.leases[id]; len(m) > 0 {
			cm := make(map[string]time.Time, len(m))
			for w, d := range m {
				cm[w] = d
				out.pushLeaseEntry(leaseEntry{deadline: d, task: id, worker: w})
			}
			out.leases[id] = cm
			out.nLeases += len(cm)
		}
	}
	for _, p := range pools {
		for w, m := range p.perWorker {
			wt := out.perWorker[w]
			if wt == nil {
				wt = make(map[TaskID]int, len(m))
				out.perWorker[w] = wt
			}
			for id, c := range m {
				wt[id] = c
			}
		}
	}
	return out
}

// ShardedPool is the goroutine-safe serving pool. It partitions tasks into
// task-hash shards, each a Pool behind its own RWMutex with its own
// version counter, lease heap, journal hook and answer-append log, so
// writes to different shards never contend on one lock and throughput
// scales with cores. Reads (task lookup and the lease-free Assign)
// proceed in parallel; mutations (Add, Record, Close, and AssignLease,
// which leases the task it picks) take the owning shard's write lock.
// Per-task calls route by ShardIndex and aggregate calls combine the
// shards.
//
// Version is the sum of the shard versions. Any mutation bumps exactly
// one shard, so an unchanged sum proves an unchanged answer set, and
// consumers that derive expensive state from the pool (EM truth inference
// behind /api/results) key their caches on it.
type ShardedPool struct {
	shards []*shard

	// addMu serializes task-ID allocation and insertion across shards;
	// count tracks total tasks for the ID-0 reassignment rule of Pool.Add.
	addMu  sync.Mutex
	nextID TaskID
	count  int
}

// shard is one partition of a ShardedPool. mu guards pool and the answer
// log; version is bumped under the write lock and read without it; journal
// is installed before the pool is shared.
type shard struct {
	mu      sync.RWMutex
	pool    *Pool
	version atomic.Uint64
	// journal, when set, observes mutations under the write lock so a
	// durability layer sees them in application order. See Journal.
	journal Journal

	// Answer-append log for incremental readers (EnableDeltaLog). Each
	// accepted answer is recorded with the version it landed at, so a
	// reader holding a snapshot at version v can fetch exactly the answers
	// appended since v instead of re-copying the whole pool. alogTrim is
	// the oldest version a delta may start from: it advances when the log
	// is trimmed and jumps to the current version on any structural
	// mutation (task add, answer removal) that an append log cannot
	// express. Readers use the *Locked accessors under an already-held
	// read lock.
	alog     []answerLogEntry
	alogCap  int
	alogTrim uint64
}

// answerLogEntry records one accepted answer and the pool version after
// it was applied.
type answerLogEntry struct {
	ver uint64
	ans Answer
}

// logAnswerLocked appends an accepted answer at the given post-bump
// version, trimming the oldest half when the log is full. Callers hold
// the write lock.
func (s *shard) logAnswerLocked(ver uint64, a Answer) {
	if s.alogCap <= 0 {
		return
	}
	if len(s.alog) >= s.alogCap {
		half := len(s.alog) / 2
		s.alogTrim = s.alog[half-1].ver
		s.alog = append(s.alog[:0], s.alog[half:]...)
	}
	s.alog = append(s.alog, answerLogEntry{ver: ver, ans: a})
}

// invalidateLogLocked discards the log after a structural mutation: the
// answer set changed in a way appends cannot express (task added, answer
// removed), so no delta may span this version. Callers hold the write
// lock and have already bumped the version.
func (s *shard) invalidateLogLocked() {
	if s.alogCap <= 0 {
		return
	}
	s.alog = s.alog[:0]
	s.alogTrim = s.version.Load()
}

// canDeltaLocked reports whether the appended answers since version
// `since` are fully covered by the log. Callers hold at least the read
// lock.
func (s *shard) canDeltaLocked(since uint64) bool {
	return s.alogCap > 0 && since >= s.alogTrim
}

// appendedSinceLocked appends to dst every answer recorded after version
// `since`, in application order, and reports whether the log covered the
// whole window. Callers hold at least the read lock.
func (s *shard) appendedSinceLocked(since uint64, dst []Answer) ([]Answer, bool) {
	if !s.canDeltaLocked(since) {
		return dst, false
	}
	// Entries are in ascending version order; skip those at or before the
	// snapshot.
	lo, hi := 0, len(s.alog)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.alog[mid].ver <= since {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for _, e := range s.alog[lo:] {
		dst = append(dst, e.ans)
	}
	return dst, true
}

// assignLease runs the policy on the shard and leases the task it picks
// until deadline, under the write lock: choosing and leasing are one
// atomic step, so two workers cannot race past each other's in-flight
// counts. With fresh set it refuses a pick that merely extends a lease
// the worker already holds; see ShardedPool.AssignLease.
func (s *shard) assignLease(a Assigner, worker string, deadline time.Time, fresh bool) (TaskID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := a.Assign(s.pool, worker)
	if !ok || fresh && s.pool.HasLease(worker, id) {
		return 0, false
	}
	if err := s.pool.Lease(id, worker, deadline); err != nil {
		// The assigner returned an unknown or closed task; treat it as no
		// assignment rather than handing out an untracked slot.
		return 0, false
	}
	if s.journal != nil {
		s.journal.LeaseIssued(Lease{Task: id, Worker: worker, Deadline: deadline})
	}
	return id, true
}

// NewShardedPool takes p (a fresh empty pool when nil) and serves it as n
// shards. n <= 1 serves p itself as the single shard; n > 1 splits the
// pool's current contents by task hash. Either way p must not be mutated
// directly afterwards.
//
// Each shard's assignment index is built here, eagerly: Assign runs the
// policy under the read lock, where building it lazily would be a write.
func NewShardedPool(p *Pool, n int) *ShardedPool {
	if p == nil {
		p = NewPool()
	}
	parts := []*Pool{p}
	if n > 1 {
		parts = SplitPool(p, n)
	}
	sp := &ShardedPool{shards: make([]*shard, len(parts)), nextID: p.nextID, count: p.Len()}
	for i, part := range parts {
		if part.idx == nil {
			part.idx = newAssignIndex(part)
		}
		sp.shards[i] = &shard{pool: part}
	}
	return sp
}

// NumShards returns the shard count.
func (sp *ShardedPool) NumShards() int { return len(sp.shards) }

// ShardFor returns the shard index owning the task. Pure function of the
// ID — callers may use it without any lock.
func (sp *ShardedPool) ShardFor(id TaskID) int { return ShardIndex(id, len(sp.shards)) }

// shardOf returns the shard owning the task.
func (sp *ShardedPool) shardOf(id TaskID) *shard {
	return sp.shards[ShardIndex(id, len(sp.shards))]
}

// workerShard picks the shard an assignment scan starts from: FNV-1a of
// the worker ID, so concurrent workers fan out across shards instead of
// convoying on shard 0.
func (sp *ShardedPool) workerShard(worker string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(worker); i++ {
		h ^= uint64(worker[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(sp.shards)))
}

// Version returns the sum of the shard mutation counters. Monotonically
// non-decreasing; two equal observations bracket a window with no task or
// answer mutations on any shard.
func (sp *ShardedPool) Version() uint64 {
	var v uint64
	for _, s := range sp.shards {
		v += s.version.Load()
	}
	return v
}

// SetJournal attaches the mutation journal to every shard; pass nil to
// detach. Call it before the pool is shared between goroutines (journal
// installation itself is not synchronized). The journal's hooks run under
// the mutating shard's write lock; a shard-aware journal (the segmented
// WAL) routes by task hash and therefore never serializes two shards on
// one journal lock. Answer recording is not journaled here — see the
// Journal docs.
func (sp *ShardedPool) SetJournal(j Journal) {
	for _, s := range sp.shards {
		s.journal = j
	}
}

// Add registers a task. It allocates a globally unique ID by Pool.Add's
// rules and inserts the task into its shard, all under addMu, so two
// concurrent adds can never both keep the same ID.
func (sp *ShardedPool) Add(t *Task) (TaskID, error) {
	sp.addMu.Lock()
	defer sp.addMu.Unlock()
	if sp.Task(t.ID) != nil || t.ID == 0 && sp.count > 0 {
		t.ID = sp.nextID
	}
	if t.ID >= sp.nextID {
		sp.nextID = t.ID + 1
	} else if t.ID == 0 {
		t.ID = sp.nextID
		sp.nextID++
	}
	s := sp.shardOf(t.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	id, err := s.pool.Add(t)
	if err != nil {
		return id, err
	}
	sp.count++
	s.version.Add(1)
	s.invalidateLogLocked()
	if s.journal != nil {
		s.journal.TaskAdded(t)
	}
	return id, nil
}

// Record stores an answer on the owning shard; the version is bumped only
// when the platform rules accept the answer.
func (sp *ShardedPool) Record(a Answer) error {
	s := sp.shardOf(a.Task)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.pool.Record(a); err != nil {
		return err
	}
	s.logAnswerLocked(s.version.Add(1), a)
	return nil
}

// RecordBatch stores a batch of answers that all belong to the given
// shard under one write-lock acquisition, applying the same platform
// rules as Record to each. The returned slice is index-aligned with as:
// nil for accepted answers, the rejection otherwise. The version is
// bumped once when at least one answer was accepted. Callers group
// answers with ShardFor first — that is what makes batch ingestion pay
// one lock, one cache invalidation and one journal append per touched
// shard.
func (sp *ShardedPool) RecordBatch(shard int, as []Answer) []error {
	s := sp.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	errs := make([]error, len(as))
	accepted := 0
	for i := range as {
		if err := s.pool.Record(as[i]); err != nil {
			errs[i] = err
		} else {
			accepted++
		}
	}
	if accepted > 0 {
		ver := s.version.Add(1)
		for i := range as {
			if errs[i] == nil {
				s.logAnswerLocked(ver, as[i])
			}
		}
	}
	return errs
}

// Unrecord removes the most recent answer equal to a from its shard,
// reporting whether one was found. The version is bumped on success:
// consumers may have cached state derived from the answer set that
// included a, and that set just changed again.
func (sp *ShardedPool) Unrecord(a Answer) bool {
	s := sp.shardOf(a.Task)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.pool.Unrecord(a) {
		return false
	}
	s.version.Add(1)
	s.invalidateLogLocked()
	return true
}

// Close marks a task as finished on its shard. The answer log stays valid
// across a Close: the version moves (closing changes what assigners may
// hand out) but the answer set does not, so a delta spanning the close is
// correctly empty. Closing an unknown task changes nothing: no version
// bump, no journal record.
func (sp *ShardedPool) Close(id TaskID) {
	s := sp.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.pool.Close(id) {
		return
	}
	s.version.Add(1)
	if s.journal != nil {
		s.journal.TaskClosed(id)
	}
}

// Assign runs the assignment policy shard by shard, starting from the
// worker's home shard, until one yields a task. Assigners only read pool
// state, so each attempt holds only that shard's read lock and
// assignments for different workers proceed in parallel even across
// mutating shards.
func (sp *ShardedPool) Assign(a Assigner, worker string) (TaskID, bool) {
	start := sp.workerShard(worker)
	for i := range sp.shards {
		s := sp.shards[(start+i)%len(sp.shards)]
		s.mu.RLock()
		id, ok := a.Assign(s.pool, worker)
		s.mu.RUnlock()
		if ok {
			return id, true
		}
	}
	return 0, false
}

// AssignLease atomically assigns and leases on the first shard that
// yields a task, holding only that shard's write lock. The scan runs in
// two passes: first it only accepts tasks the worker does not already
// hold a lease on — otherwise a worker's home shard would keep extending
// the same few leases and fresh tasks on later shards would never be
// reached — and only when every shard is out of fresh work does it fall
// back to a plain pass, so a worker polling past the pool size still
// extends its leases.
//
// Lease bookkeeping deliberately does NOT bump the version: leases never
// change the answer set, and bumping on every assignment would invalidate
// the /api/results inference cache on each /api/task poll.
func (sp *ShardedPool) AssignLease(a Assigner, worker string, deadline time.Time) (TaskID, bool) {
	start := sp.workerShard(worker)
	for _, fresh := range [2]bool{true, false} {
		for i := range sp.shards {
			if id, ok := sp.shards[(start+i)%len(sp.shards)].assignLease(a, worker, deadline, fresh); ok {
				return id, true
			}
		}
	}
	return 0, false
}

// ExpireLeases sweeps every shard and returns the reclaimed assignments
// in deterministic (task, worker) order across shards. Like AssignLease,
// it does not bump the version.
func (sp *ShardedPool) ExpireLeases(now time.Time) []Lease {
	var out []Lease
	for _, s := range sp.shards {
		s.mu.Lock()
		exp := s.pool.ExpireLeases(now)
		if len(exp) > 0 && s.journal != nil {
			s.journal.LeasesExpired(exp)
		}
		s.mu.Unlock()
		out = append(out, exp...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].Worker < out[j].Worker
	})
	return out
}

// ViewAll runs fn with every shard's read lock held (acquired in shard
// order), giving it a consistent cross-shard snapshot: no mutation can
// land on any shard while fn runs, so Version observed inside fn is exact
// for the whole view. fn receives the shard pools indexed by shard; it
// must not mutate them or retain references past the call.
func (sp *ShardedPool) ViewAll(fn func(pools []*Pool)) {
	for _, s := range sp.shards {
		s.mu.RLock()
	}
	defer func() {
		for i := len(sp.shards) - 1; i >= 0; i-- {
			sp.shards[i].mu.RUnlock()
		}
	}()
	pools := make([]*Pool, len(sp.shards))
	for i, s := range sp.shards {
		pools[i] = s.pool
	}
	fn(pools)
}

// PoolStats is the /api/stats aggregate over a set of disjoint pools.
type PoolStats struct {
	Tasks, OpenTasks, TotalAnswers, ActiveLeases, Workers int
}

// StatsOf aggregates disjoint pools, such as the shard pools ViewAll hands
// its callback, from their O(1) counters. Workers counts distinct workers:
// each worker is counted on the first pool whose answer map holds it, so
// the union costs map lookups only, with no sort and no set allocated.
func StatsOf(pools []*Pool) PoolStats {
	var st PoolStats
	for i, p := range pools {
		st.Tasks += p.Len()
		st.OpenTasks += p.OpenCount()
		st.TotalAnswers += p.nAnswers
		st.ActiveLeases += p.nLeases
	workers:
		for w := range p.perWorker {
			for _, q := range pools[:i] {
				if _, seen := q.perWorker[w]; seen {
					continue workers
				}
			}
			st.Workers++
		}
	}
	return st
}

// EnableDeltaLog turns on the per-shard answer-append log with the given
// per-shard capacity (answers retained; half is discarded on overflow),
// making ViewDelta's incremental accessors available from each shard's
// current version onward. capacity <= 0 disables the log again.
func (sp *ShardedPool) EnableDeltaLog(capacity int) {
	for _, s := range sp.shards {
		s.mu.Lock()
		s.alogCap = capacity
		s.alog = nil
		s.alogTrim = s.version.Load()
		s.mu.Unlock()
	}
}

// DeltaView is the read surface ViewDelta hands to its callback: the
// shard pools and versions of a consistent cross-shard snapshot, plus
// incremental accessors over each shard's answer log. Valid only inside
// the callback.
type DeltaView struct {
	// Pools holds the shard pools indexed by shard, exactly as ViewAll
	// passes them; callers must not mutate them or retain references.
	Pools []*Pool
	// Versions holds each shard's version at the snapshot.
	Versions []uint64
	sp       *ShardedPool
}

// Version returns the aggregate pool version of the snapshot (the sum of
// the shard versions, matching ShardedPool.Version).
func (v *DeltaView) Version() uint64 {
	var sum uint64
	for _, sv := range v.Versions {
		sum += sv
	}
	return sum
}

// CanDelta reports whether the shard's answer log fully covers the window
// from version `since` to the snapshot: no trim ate the window's start
// and no structural mutation (task add, answer removal) landed inside it.
func (v *DeltaView) CanDelta(shard int, since uint64) bool {
	return v.sp.shards[shard].canDeltaLocked(since)
}

// AppendedSince appends to dst the answers the shard accepted after
// version `since`, in application order, reporting whether the log
// covered the window (false means the caller must fall back to a full
// snapshot).
func (v *DeltaView) AppendedSince(shard int, since uint64, dst []Answer) ([]Answer, bool) {
	return v.sp.shards[shard].appendedSinceLocked(since, dst)
}

// ViewDelta is ViewAll plus incremental access: fn runs with every
// shard's read lock held and receives a DeltaView exposing the shard
// pools, the exact per-shard versions of the snapshot, and the answers
// appended since a caller-remembered older snapshot. An incremental
// results pipeline snapshots {Versions, delta answers} here, then builds
// datasets and runs inference outside the locks.
func (sp *ShardedPool) ViewDelta(fn func(v *DeltaView)) {
	sp.ViewAll(func(pools []*Pool) {
		v := &DeltaView{Pools: pools, Versions: make([]uint64, len(pools)), sp: sp}
		for i, s := range sp.shards {
			v.Versions[i] = s.version.Load()
		}
		fn(v)
	})
}

// Task returns the task with the given id, or nil. Tasks are immutable
// once added, so the returned pointer is safe to read without the lock.
func (sp *ShardedPool) Task(id TaskID) *Task {
	s := sp.shardOf(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pool.Task(id)
}

// Len returns the number of tasks across shards.
func (sp *ShardedPool) Len() int {
	n := 0
	for _, s := range sp.shards {
		s.mu.RLock()
		n += s.pool.Len()
		s.mu.RUnlock()
	}
	return n
}

// LeaseCount returns the number of outstanding leases on a task.
func (sp *ShardedPool) LeaseCount(id TaskID) int {
	s := sp.shardOf(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pool.LeaseCount(id)
}

// Answers returns a copy of the answers recorded for a task.
func (sp *ShardedPool) Answers(id TaskID) []Answer {
	s := sp.shardOf(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	src := s.pool.Answers(id)
	if src == nil {
		return nil
	}
	return append([]Answer(nil), src...)
}

// AnswerCount returns the number of answers for a task.
func (sp *ShardedPool) AnswerCount(id TaskID) int {
	s := sp.shardOf(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pool.AnswerCount(id)
}

// EligibleFor returns the open tasks the worker has not answered yet:
// insertion order for a single shard, ascending ID order across several.
func (sp *ShardedPool) EligibleFor(worker string) []TaskID {
	var out []TaskID
	for _, s := range sp.shards {
		s.mu.RLock()
		out = append(out, s.pool.EligibleFor(worker)...)
		s.mu.RUnlock()
	}
	if len(sp.shards) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	return out
}
