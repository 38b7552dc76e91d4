package core

import (
	"math/bits"
	"slices"
)

// assignIndex is a pool's assignment index: its open tasks bucketed by
// InFlight, so FewestInFlight finds the least-loaded task a worker may
// take without scanning the pool.
//
// Invariant: the open task at position i of Pool.order is bit i of
// buckets[InFlight(id)] and of no other bucket; closed tasks are in no
// bucket. Walking the buckets from count 0 upward, and each bucket's bits
// in ascending position, therefore visits the open tasks in exactly the
// (in-flight count, insertion order) ranking FewestAnswers defines.
type assignIndex struct {
	// pos maps task IDs to positions in Pool.order. It stays nil while
	// order is ascending by ID, the usual case: Add hands out ascending
	// IDs, and SplitPool and MergePools keep or restore that order.
	// Positions are then found by binary search, at no memory cost.
	pos     map[TaskID]int
	buckets []bitset // buckets[c]: open tasks with InFlight == c
}

// newAssignIndex builds the index over p's current contents.
func newAssignIndex(p *Pool) *assignIndex {
	x := &assignIndex{}
	if !slices.IsSorted(p.order) {
		x.mapPositions(p)
	}
	for i, id := range p.order {
		if !p.closed[id] {
			x.insert(i, p.InFlight(id))
		}
	}
	return x
}

// mapPositions switches position lookups from binary search to a map.
func (x *assignIndex) mapPositions(p *Pool) {
	x.pos = make(map[TaskID]int, len(p.order))
	for i, id := range p.order {
		x.pos[id] = i
	}
}

// added indexes the task Add just appended to p.order.
func (x *assignIndex) added(p *Pool, id TaskID) {
	i := len(p.order) - 1
	if x.pos != nil {
		x.pos[id] = i
	} else if i > 0 && p.order[i-1] > id {
		x.mapPositions(p)
	}
	x.insert(i, p.InFlight(id))
}

// position returns the index of task id in p.order.
func (x *assignIndex) position(p *Pool, id TaskID) int {
	if x.pos != nil {
		return x.pos[id]
	}
	i, _ := slices.BinarySearch(p.order, id)
	return i
}

// insert adds position i to bucket c.
func (x *assignIndex) insert(i, c int) {
	for len(x.buckets) <= c {
		x.buckets = append(x.buckets, bitset{})
	}
	x.buckets[c].set(i)
}

// remove takes position i out of bucket c, dropping trailing empty
// buckets so walks stop at the highest count in use.
func (x *assignIndex) remove(i, c int) {
	x.buckets[c].clear(i)
	for n := len(x.buckets); n > 0 && x.buckets[n-1].n == 0; n-- {
		x.buckets = x.buckets[:n-1]
	}
}

// bitset is a two-level set of positions: words holds one bit per
// position and summary one bit per non-zero word, so finding the next
// member reads O(n/4096) words rather than O(n/64). An emptied set
// releases its storage, so memory stays proportional to the buckets in
// use however high one task's count climbs.
type bitset struct {
	words   []uint64
	summary []uint64
	n       int // members
}

func (b *bitset) set(i int) {
	w := i >> 6
	if w >= len(b.words) {
		b.words = append(b.words, make([]uint64, w+1-len(b.words))...)
	}
	if s := w >> 6; s >= len(b.summary) {
		b.summary = append(b.summary, make([]uint64, s+1-len(b.summary))...)
	}
	if b.words[w]&(1<<(i&63)) == 0 {
		b.words[w] |= 1 << (i & 63)
		b.summary[w>>6] |= 1 << (w & 63)
		b.n++
	}
}

func (b *bitset) clear(i int) {
	w := i >> 6
	if w >= len(b.words) || b.words[w]&(1<<(i&63)) == 0 {
		return
	}
	b.words[w] &^= 1 << (i & 63)
	if b.words[w] == 0 {
		b.summary[w>>6] &^= 1 << (w & 63)
	}
	if b.n--; b.n == 0 {
		b.words, b.summary = nil, nil
	}
}

// next returns the smallest member at or after i, or -1.
func (b *bitset) next(i int) int {
	w := i >> 6
	if w >= len(b.words) {
		return -1
	}
	if m := b.words[w] &^ (1<<(i&63) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	// The first non-zero word after w, found through the summary.
	w++
	s := w >> 6
	if s >= len(b.summary) {
		return -1
	}
	m := b.summary[s] &^ (1<<(w&63) - 1)
	for m == 0 {
		if s++; s >= len(b.summary) {
			return -1
		}
		m = b.summary[s]
	}
	w = s<<6 + bits.TrailingZeros64(m)
	return w<<6 + bits.TrailingZeros64(b.words[w])
}

// reindex moves task id to the bucket of its current InFlight after a
// mutation changed that count from `from`. A no-op without an index or
// for a closed task (closed tasks are in no bucket).
func (p *Pool) reindex(id TaskID, from int) {
	if p.idx == nil || p.closed[id] {
		return
	}
	if to := p.InFlight(id); to != from {
		i := p.idx.position(p, id)
		p.idx.remove(i, from)
		p.idx.insert(i, to)
	}
}

// FewestInFlight returns the open task the worker has not answered with
// the fewest in-flight answers (committed answers plus outstanding
// leases), breaking ties by insertion order, or ok=false when the worker
// has answered every open task. It walks the assignment index from the
// lowest count up, so its cost follows the tasks it skips (ones this
// worker answered), not the size of the pool.
//
// A pool served by NewShardedPool has its index built at construction,
// and this method only reads it, which keeps it safe under the read lock.
// A bare Pool builds the index on the first call and maintains it from
// then on.
func (p *Pool) FewestInFlight(worker string) (TaskID, bool) {
	if p.idx == nil {
		p.idx = newAssignIndex(p)
	}
	answered := p.perWorker[worker]
	for c := range p.idx.buckets {
		b := &p.idx.buckets[c]
		for i := b.next(0); i >= 0; i = b.next(i + 1) {
			if id := p.order[i]; answered[id] == 0 {
				return id, true
			}
		}
	}
	return 0, false
}
