package core

import (
	"fmt"
	"reflect"
	"testing"
)

func choiceTask(id TaskID) *Task {
	return &Task{ID: id, Kind: SingleChoice, Options: []string{"a", "b"}}
}

// logShard returns a single-shard pool and its shard, so the answer-log
// tests can read the log under the shard's own lock.
func logShard() (*ShardedPool, *shard) {
	sp := NewShardedPool(nil, 1)
	return sp, sp.shards[0]
}

func TestAnswerLogCoversAppends(t *testing.T) {
	sp, s := logShard()
	for i := 1; i <= 4; i++ {
		if _, err := sp.Add(choiceTask(TaskID(i))); err != nil {
			t.Fatal(err)
		}
	}
	sp.EnableDeltaLog(64)
	v0 := sp.Version()

	// Before anything lands, the delta from v0 is empty but covered.
	s.mu.RLock()
	got, ok := s.appendedSinceLocked(v0, nil)
	s.mu.RUnlock()
	if !ok || len(got) != 0 {
		t.Fatalf("empty window: got %v, covered=%v", got, ok)
	}

	a1 := Answer{Task: 1, Worker: "w1", Option: 0}
	a2 := Answer{Task: 2, Worker: "w1", Option: 1}
	if err := sp.Record(a1); err != nil {
		t.Fatal(err)
	}
	v1 := sp.Version()
	// A batch shares one post-bump version.
	batch := []Answer{a2, {Task: 2, Worker: "w1", Option: 1}} // duplicate rejected
	errs := sp.RecordBatch(0, batch)
	if errs[0] != nil || errs[1] == nil {
		t.Fatalf("batch errors = %v", errs)
	}
	// Closing a task bumps the version but appends no answers; the log
	// stays valid across it.
	sp.Close(4)

	s.mu.RLock()
	defer s.mu.RUnlock()
	if got, ok := s.appendedSinceLocked(v0, nil); !ok || !reflect.DeepEqual(got, []Answer{a1, a2}) {
		t.Fatalf("delta since v0 = (%v, %v), want both answers", got, ok)
	}
	if got, ok := s.appendedSinceLocked(v1, nil); !ok || !reflect.DeepEqual(got, []Answer{a2}) {
		t.Fatalf("delta since v1 = (%v, %v), want the batch answer", got, ok)
	}
	if got, ok := s.appendedSinceLocked(sp.Version(), nil); !ok || len(got) != 0 {
		t.Fatalf("delta since head = (%v, %v), want empty", got, ok)
	}
	// A window starting before the log was enabled is not covered.
	if _, ok := s.appendedSinceLocked(v0-1, nil); ok {
		t.Fatal("window predating EnableDeltaLog reported as covered")
	}
}

func TestAnswerLogStructuralInvalidation(t *testing.T) {
	sp, s := logShard()
	if _, err := sp.Add(choiceTask(1)); err != nil {
		t.Fatal(err)
	}
	sp.EnableDeltaLog(64)
	v0 := sp.Version()
	a := Answer{Task: 1, Worker: "w1", Option: 0}
	if err := sp.Record(a); err != nil {
		t.Fatal(err)
	}

	// Adding a task is structural: old windows die, new ones work.
	if _, err := sp.Add(choiceTask(2)); err != nil {
		t.Fatal(err)
	}
	vAdd := sp.Version()
	s.mu.RLock()
	if s.canDeltaLocked(v0) {
		t.Fatal("window across a task add reported as covered")
	}
	if !s.canDeltaLocked(vAdd) {
		t.Fatal("fresh window after a task add not covered")
	}
	s.mu.RUnlock()

	if err := sp.Record(Answer{Task: 2, Worker: "w1", Option: 1}); err != nil {
		t.Fatal(err)
	}
	vRec := sp.Version()
	// Removing an answer is structural too.
	if !sp.Unrecord(a) {
		t.Fatal("unrecord missed")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.canDeltaLocked(vRec) {
		t.Fatal("window across an unrecord reported as covered")
	}
	if !s.canDeltaLocked(sp.Version()) {
		t.Fatal("fresh window after an unrecord not covered")
	}
}

func TestAnswerLogTrim(t *testing.T) {
	sp, s := logShard()
	if _, err := sp.Add(&Task{ID: 1, Kind: MultiChoice, Options: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	sp.EnableDeltaLog(8)
	v0 := sp.Version()
	var vers []uint64
	for i := 0; i < 12; i++ {
		if err := sp.Record(Answer{Task: 1, Worker: fmt.Sprintf("w%d", i), Option: i % 2}); err != nil {
			t.Fatal(err)
		}
		vers = append(vers, sp.Version())
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	// The window from the start was trimmed away.
	if s.canDeltaLocked(v0) {
		t.Fatal("trimmed window reported as covered")
	}
	// A window starting at the trim point is covered and returns exactly
	// the retained tail.
	if got, ok := s.appendedSinceLocked(s.alogTrim, nil); !ok || len(got) != len(s.alog) {
		t.Fatalf("tail window = (%d answers, %v), want %d", len(got), ok, len(s.alog))
	}
	// Recent windows survive the trim.
	if got, ok := s.appendedSinceLocked(vers[10], nil); !ok || len(got) != 1 {
		t.Fatalf("recent window = (%d answers, %v), want 1", len(got), ok)
	}
}

func TestShardedViewDelta(t *testing.T) {
	sp := NewShardedPool(nil, 4)
	for i := 1; i <= 32; i++ {
		if _, err := sp.Add(choiceTask(TaskID(i))); err != nil {
			t.Fatal(err)
		}
	}
	sp.EnableDeltaLog(64)

	var snap []uint64
	sp.ViewDelta(func(v *DeltaView) {
		snap = append([]uint64(nil), v.Versions...)
		if v.Version() != sp.Version() {
			t.Errorf("snapshot version %d != pool version %d", v.Version(), sp.Version())
		}
		for i := range v.Versions {
			if !v.CanDelta(i, snap[i]) {
				t.Errorf("shard %d: fresh window not covered", i)
			}
		}
	})

	want := make(map[int][]Answer)
	for i := 1; i <= 32; i += 3 {
		a := Answer{Task: TaskID(i), Worker: "w1", Option: 1}
		if err := sp.Record(a); err != nil {
			t.Fatal(err)
		}
		sh := sp.ShardFor(TaskID(i))
		want[sh] = append(want[sh], a)
	}

	sp.ViewDelta(func(v *DeltaView) {
		for i := range v.Versions {
			got, ok := v.AppendedSince(i, snap[i], nil)
			if !ok {
				t.Errorf("shard %d: window not covered", i)
				continue
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("shard %d: delta = %v, want %v", i, got, want[i])
			}
		}
	})
}
