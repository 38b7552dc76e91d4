package core

import (
	"fmt"
	"testing"
)

// halfAnsweredPool builds n tasks whose first half already holds one
// answer each, the shape of a serving pool partway through its first
// round of redundancy: the least-loaded tasks sit past the answered ones.
func halfAnsweredPool(b *testing.B, n int) *Pool {
	b.Helper()
	p := NewPool()
	for i := 1; i <= n; i++ {
		p.MustAdd(binaryTask(TaskID(i), -1))
	}
	for i := 1; i <= n/2; i++ {
		if err := p.Record(Answer{Task: TaskID(i), Worker: fmt.Sprintf("pre%d", i%64), Option: 1}); err != nil {
			b.Fatal(err)
		}
	}
	return p
}

// BenchmarkFewestAnswers times one FewestAnswers pick on pools of 256 to
// 65 536 tasks, half of them already answered once, for a rotating set of
// workers. The index walk jumps to the first unanswered task and should
// cost the same at every size, allocating nothing; the scan baseline (the
// pre-index policy) walks the whole pool and allocates a slice of it per
// pick.
func BenchmarkFewestAnswers(b *testing.B) {
	workers := make([]string, 256)
	for i := range workers {
		workers[i] = fmt.Sprintf("w%d", i)
	}
	for _, n := range []int{256, 4_096, 65_536} {
		p := halfAnsweredPool(b, n)
		want, _ := fewestInFlightScan(p, workers[0])
		for _, impl := range []struct {
			name   string
			assign AssignerFunc
		}{{"index", indexAssigner}, {"scan", scanAssigner}} {
			b.Run(fmt.Sprintf("%s/tasks=%d", impl.name, n), func(b *testing.B) {
				impl.assign(p, workers[0]) // build the index outside the timer
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if id, ok := impl.assign(p, workers[i%len(workers)]); !ok || id != want {
						b.Fatalf("picked (%d,%v), want %d", id, ok, want)
					}
				}
			})
		}
	}
}
