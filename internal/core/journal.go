package core

// Journal observes committed pool mutations so a durability layer can
// append them to a write-ahead log. ShardedPool invokes the hooks under
// the mutating shard's write lock, immediately after the mutation is
// applied and before the lock is released, so the journal sees each
// shard's mutations in exactly the order the shard applied them. Implementations must be fast — buffer and append
// only, never fsync — because they run inside the pool's critical section;
// the serving layer owns the durability (fsync) point.
//
// Answer recording is deliberately NOT part of this interface: an accepted
// answer's journal record carries serving-layer context the pool does not
// have (the unit cost that was charged, the golden-task outcome), and it
// must be made durable before the client is acked. The server therefore
// journals answers explicitly after ShardedPool.Record succeeds — see
// server.WithDurability.
type Journal interface {
	// TaskAdded is called after a task is registered. The task pointer is
	// shared with the pool; tasks are immutable once added.
	TaskAdded(t *Task)
	// TaskClosed is called after a task stops accepting answers.
	TaskClosed(id TaskID)
	// LeaseIssued is called after an assignment lease is recorded or
	// extended.
	LeaseIssued(l Lease)
	// LeasesExpired is called after a sweep reclaims one or more leases,
	// with the reclaimed set in deterministic (task, worker) order.
	LeasesExpired(ls []Lease)
}
