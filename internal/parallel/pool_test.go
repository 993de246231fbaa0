package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU=%d", got, runtime.NumCPU())
	}
	if got := Workers(-5); got != runtime.NumCPU() {
		t.Errorf("Workers(-5) = %d, want NumCPU=%d", got, runtime.NumCPU())
	}
}

func TestDoRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 250
		var counts [n]atomic.Int32
		Do(workers, n, func(_, i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestDoZeroTasks(t *testing.T) {
	Do(4, 0, func(int, int) { t.Fatal("task ran") })
}

// TestDoWorkerIndexExclusive: the worker index Do hands a task is in
// [0, workers) and is never held by two tasks running at the same time
// — what lets tame-tv give each index its own trace track.
func TestDoWorkerIndexExclusive(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var busy [4]atomic.Bool
		var bad atomic.Int64
		Do(workers, 200, func(w, i int) {
			if w < 0 || w >= workers || !busy[w].CompareAndSwap(false, true) {
				bad.Add(1)
				return
			}
			for k := 0; k < 10; k++ {
				runtime.Gosched() // let other tasks start while this one holds w
			}
			busy[w].Store(false)
		})
		if n := bad.Load(); n != 0 {
			t.Fatalf("workers=%d: %d tasks got an index out of range or in use", workers, n)
		}
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		got := Map(workers, 64, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: Map[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapInlineWhenSerial(t *testing.T) {
	// workers=1 must run on the calling goroutine, in index order.
	var order []int
	Map(1, 5, func(i int) int { order = append(order, i); return i })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial Map visited %v", order)
		}
	}
}
