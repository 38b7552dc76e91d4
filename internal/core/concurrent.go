package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// ConcurrentPool makes a Pool safe for concurrent use by guarding it with
// an RWMutex: reads (task lookup, eligibility scans, statistics, and the
// lease-free Assign) proceed in parallel, while mutations (Add, Record,
// Close, and AssignLease, which leases the task it picks) take the write
// lock. The single-threaded Pool keeps its lock-free API for the
// simulator hot loops; the serving layer wraps it here.
//
// The wrapper also maintains a monotonically increasing version counter,
// bumped on every successful mutation. Consumers that derive expensive
// state from the pool (e.g. EM truth inference behind /api/results) key
// their caches on Version: an unchanged version proves the answer set is
// unchanged, so the cached result is still exact.
type ConcurrentPool struct {
	mu      sync.RWMutex
	pool    *Pool
	version atomic.Uint64
	// journal, when set, observes mutations under the write lock so a
	// durability layer sees them in application order. See Journal.
	journal Journal

	// Answer-append log for incremental readers (EnableAnswerLog). Each
	// accepted answer is recorded with the version it landed at, so a
	// reader holding a snapshot at version v can fetch exactly the answers
	// appended since v instead of re-copying the whole pool. alogTrim is
	// the oldest version a delta may start from: it advances when the log
	// is trimmed and jumps to the current version on any structural
	// mutation (task add, answer removal) that an append log cannot
	// express. All fields are guarded by mu; readers use the *Locked
	// accessors under an already-held read lock.
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

// EnableAnswerLog turns on the answer-append log with the given capacity
// (answers retained; half is discarded on overflow). Deltas become
// available from the current version onward. capacity <= 0 disables the
// log again.
func (cp *ConcurrentPool) EnableAnswerLog(capacity int) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.alogCap = capacity
	cp.alog = nil
	cp.alogTrim = cp.version.Load()
}

// logAnswerLocked appends an accepted answer at the given post-bump
// version, trimming the oldest half when the log is full. Callers hold
// the write lock.
func (cp *ConcurrentPool) logAnswerLocked(ver uint64, a Answer) {
	if cp.alogCap <= 0 {
		return
	}
	if len(cp.alog) >= cp.alogCap {
		half := len(cp.alog) / 2
		cp.alogTrim = cp.alog[half-1].ver
		cp.alog = append(cp.alog[:0], cp.alog[half:]...)
	}
	cp.alog = append(cp.alog, answerLogEntry{ver: ver, ans: a})
}

// invalidateLogLocked discards the log after a structural mutation: the
// answer set changed in a way appends cannot express (task added, answer
// removed), so no delta may span this version. Callers hold the write
// lock and have already bumped the version.
func (cp *ConcurrentPool) invalidateLogLocked() {
	if cp.alogCap <= 0 {
		return
	}
	cp.alog = cp.alog[:0]
	cp.alogTrim = cp.version.Load()
}

// canDeltaLocked reports whether the appended answers since version
// `since` are fully covered by the log. Callers hold at least the read
// lock.
func (cp *ConcurrentPool) canDeltaLocked(since uint64) bool {
	return cp.alogCap > 0 && since >= cp.alogTrim
}

// appendedSinceLocked appends to dst every answer recorded after version
// `since`, in application order, and reports whether the log covered the
// whole window. Callers hold at least the read lock.
func (cp *ConcurrentPool) appendedSinceLocked(since uint64, dst []Answer) ([]Answer, bool) {
	if !cp.canDeltaLocked(since) {
		return dst, false
	}
	// Entries are in ascending version order; skip those at or before the
	// snapshot.
	lo, hi := 0, len(cp.alog)
	for lo < hi {
		mid := (lo + hi) / 2
		if cp.alog[mid].ver <= since {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for _, e := range cp.alog[lo:] {
		dst = append(dst, e.ans)
	}
	return dst, true
}

// NewConcurrentPool wraps p (a fresh empty pool when nil). The wrapped
// pool must not be mutated directly while the wrapper is in use; read-only
// access from other goroutines remains safe as long as no one bypasses the
// wrapper for writes.
//
// The pool's assignment index is built here, eagerly: Assign runs the
// policy under the read lock, where building it lazily would be a write.
func NewConcurrentPool(p *Pool) *ConcurrentPool {
	if p == nil {
		p = NewPool()
	}
	if p.idx == nil {
		p.idx = newAssignIndex(p)
	}
	return &ConcurrentPool{pool: p}
}

// Version returns the current mutation counter. Two equal observations
// bracket a window in which the pool's tasks and answers did not change.
func (cp *ConcurrentPool) Version() uint64 { return cp.version.Load() }

// SetJournal attaches a mutation journal. It must be called before the
// pool is shared between goroutines (journal installation itself is not
// synchronized); pass nil to detach. Answer recording is not journaled
// here — see the Journal docs.
func (cp *ConcurrentPool) SetJournal(j Journal) { cp.journal = j }

// Add registers a task under the write lock.
func (cp *ConcurrentPool) Add(t *Task) (TaskID, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	id, err := cp.pool.Add(t)
	if err == nil {
		cp.version.Add(1)
		cp.invalidateLogLocked()
		if cp.journal != nil {
			cp.journal.TaskAdded(t)
		}
	}
	return id, err
}

// Record stores an answer under the write lock; the version is bumped only
// when the platform rules accept the answer.
func (cp *ConcurrentPool) Record(a Answer) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if err := cp.pool.Record(a); err != nil {
		return err
	}
	cp.logAnswerLocked(cp.version.Add(1), a)
	return nil
}

// RecordAll stores a batch of answers under one write-lock acquisition,
// applying the same platform rules as Record to each. The returned slice
// is index-aligned with as: nil for accepted answers, the rejection
// otherwise. The version is bumped once when at least one answer was
// accepted — the point of batching is to pay the lock and the cache
// invalidation once per batch instead of once per answer.
func (cp *ConcurrentPool) RecordAll(as []Answer) []error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	errs := make([]error, len(as))
	accepted := 0
	for i := range as {
		if err := cp.pool.Record(as[i]); err != nil {
			errs[i] = err
		} else {
			accepted++
		}
	}
	if accepted > 0 {
		ver := cp.version.Add(1)
		for i := range as {
			if errs[i] == nil {
				cp.logAnswerLocked(ver, as[i])
			}
		}
	}
	return errs
}

// Unrecord removes the most recent answer equal to a under the write
// lock, reporting whether one was found. The version is bumped on
// success: consumers may have cached state derived from the answer set
// that included a, and that set just changed again.
func (cp *ConcurrentPool) Unrecord(a Answer) bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ok := cp.pool.Unrecord(a)
	if ok {
		cp.version.Add(1)
		cp.invalidateLogLocked()
	}
	return ok
}

// Close marks a task as finished under the write lock. The answer log
// stays valid across a Close: the version moves (closing changes what
// assigners may hand out) but the answer set does not, so a delta
// spanning the close is correctly empty. Closing an unknown task changes
// nothing: no version bump, no journal record.
func (cp *ConcurrentPool) Close(id TaskID) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if !cp.pool.Close(id) {
		return
	}
	cp.version.Add(1)
	if cp.journal != nil {
		cp.journal.TaskClosed(id)
	}
}

// Assign runs an assignment policy against the pool under the read lock.
// Assigners only read pool state, so concurrent assignments for different
// workers proceed in parallel.
func (cp *ConcurrentPool) Assign(a Assigner, worker string) (TaskID, bool) {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return a.Assign(cp.pool, worker)
}

// AssignLease atomically runs the assignment policy and records a lease on
// the chosen task until deadline. It takes the write lock (the lease is a
// mutation, and choosing + leasing must be one atomic step so two workers
// cannot race past each other's in-flight counts).
//
// Lease bookkeeping deliberately does NOT bump the version counter: leases
// never change the answer set, and bumping on every assignment would
// invalidate the /api/results inference cache on each /api/task poll.
func (cp *ConcurrentPool) AssignLease(a Assigner, worker string, deadline time.Time) (TaskID, bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	id, ok := a.Assign(cp.pool, worker)
	if !ok {
		return 0, false
	}
	if err := cp.pool.Lease(id, worker, deadline); err != nil {
		// The assigner returned an unknown or closed task; treat it as no
		// assignment rather than handing out an untracked slot.
		return 0, false
	}
	if cp.journal != nil {
		cp.journal.LeaseIssued(Lease{Task: id, Worker: worker, Deadline: deadline})
	}
	return id, true
}

// assignLeaseFresh is AssignLease that refuses an assignment merely
// extending a lease the worker already holds. The sharded facade uses it
// for its first scan: a shard whose only offer for this worker is a
// re-extension should not stop the scan while another shard still has
// fresh work.
func (cp *ConcurrentPool) assignLeaseFresh(a Assigner, worker string, deadline time.Time) (TaskID, bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	id, ok := a.Assign(cp.pool, worker)
	if !ok || cp.pool.HasLease(worker, id) {
		return 0, false
	}
	if err := cp.pool.Lease(id, worker, deadline); err != nil {
		return 0, false
	}
	if cp.journal != nil {
		cp.journal.LeaseIssued(Lease{Task: id, Worker: worker, Deadline: deadline})
	}
	return id, true
}

// ExpireLeases sweeps leases past their deadline under the write lock and
// returns the reclaimed assignments. Like AssignLease, it does not bump
// the version counter.
func (cp *ConcurrentPool) ExpireLeases(now time.Time) []Lease {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	exp := cp.pool.ExpireLeases(now)
	if len(exp) > 0 && cp.journal != nil {
		cp.journal.LeasesExpired(exp)
	}
	return exp
}

// ActiveLeases returns the total number of outstanding leases.
func (cp *ConcurrentPool) ActiveLeases() int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.ActiveLeases()
}

// LeaseCount returns the number of outstanding leases on a task.
func (cp *ConcurrentPool) LeaseCount(id TaskID) int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.LeaseCount(id)
}

// HasLease reports whether the worker holds a lease on the task.
func (cp *ConcurrentPool) HasLease(worker string, id TaskID) bool {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.HasLease(worker, id)
}

// InFlight returns committed answers plus outstanding leases for a task.
func (cp *ConcurrentPool) InFlight(id TaskID) int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.InFlight(id)
}

// View runs fn with the read lock held, giving it a consistent snapshot of
// the pool across multiple calls. fn must not mutate the pool and must not
// retain references to its internal slices past the call.
func (cp *ConcurrentPool) View(fn func(p *Pool)) {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	fn(cp.pool)
}

// Task returns the task with the given id, or nil. Tasks are immutable
// once added, so the returned pointer is safe to read without the lock.
func (cp *ConcurrentPool) Task(id TaskID) *Task {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.Task(id)
}

// Len returns the number of tasks.
func (cp *ConcurrentPool) Len() int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.Len()
}

// TaskIDs returns a copy of the task ids in insertion order.
func (cp *ConcurrentPool) TaskIDs() []TaskID {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	out := make([]TaskID, len(cp.pool.TaskIDs()))
	copy(out, cp.pool.TaskIDs())
	return out
}

// Answers returns a copy of the answers recorded for a task.
func (cp *ConcurrentPool) Answers(id TaskID) []Answer {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	src := cp.pool.Answers(id)
	if src == nil {
		return nil
	}
	out := make([]Answer, len(src))
	copy(out, src)
	return out
}

// AnswerCount returns the number of answers for a task.
func (cp *ConcurrentPool) AnswerCount(id TaskID) int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.AnswerCount(id)
}

// TotalAnswers returns the number of answers across all tasks.
func (cp *ConcurrentPool) TotalAnswers() int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.TotalAnswers()
}

// HasAnswered reports whether the worker already answered the task.
func (cp *ConcurrentPool) HasAnswered(worker string, id TaskID) bool {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.HasAnswered(worker, id)
}

// Closed reports whether the task has been closed.
func (cp *ConcurrentPool) Closed(id TaskID) bool {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.Closed(id)
}

// OpenTasks returns the ids of tasks that are not closed.
func (cp *ConcurrentPool) OpenTasks() []TaskID {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.OpenTasks()
}

// EligibleFor returns open tasks the worker has not answered yet.
func (cp *ConcurrentPool) EligibleFor(worker string) []TaskID {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.EligibleFor(worker)
}

// Workers returns the sorted ids of all workers that answered.
func (cp *ConcurrentPool) Workers() []string {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.Workers()
}

// OptionVotes tallies option votes for a choice-type task.
func (cp *ConcurrentPool) OptionVotes(id TaskID) []int {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	return cp.pool.OptionVotes(id)
}
