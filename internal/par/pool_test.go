package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolOrderAndCompleteness(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		p := NewPool(workers)
		for round := 0; round < 3; round++ { // reuse across rounds is the point
			out := make([]int, 23)
			p.Run(len(out), func(i int) { out[i] = i * i })
			for i, v := range out {
				if v != i*i {
					t.Fatalf("workers=%d round=%d: out[%d] = %d, want %d", workers, round, i, v, i*i)
				}
			}
		}
		p.Run(0, func(i int) { t.Errorf("n=0 must not call fn (i=%d)", i) })
		p.Close()
	}
}

func TestMapOrderAndCompleteness(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		got := Map(23, workers, func(i int) int { return i * i })
		if len(got) != 23 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		if got := Map(0, workers, func(i int) int { return i }); got != nil {
			t.Fatalf("workers=%d n=0: got %v, want nil", workers, got)
		}
	}
}

// peakConcurrency runs fanout over a task that tracks how many tasks are
// in flight at once and returns the highest count observed.
func peakConcurrency(fanout func(fn func(i int))) int64 {
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	fanout(func(i int) {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		inFlight.Add(-1)
	})
	return peak.Load()
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	if got := peakConcurrency(func(fn func(i int)) { p.Run(50, fn) }); got > 3 {
		t.Fatalf("observed %d concurrent tasks, want ≤ 3", got)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	got := peakConcurrency(func(fn func(i int)) {
		Map(50, 3, func(i int) struct{} { fn(i); return struct{}{} })
	})
	if got > 3 {
		t.Fatalf("observed %d concurrent tasks, want ≤ 3", got)
	}
}

// The pool really is parallel: with 4 workers, a task that blocks until
// a second task is in flight must not deadlock.
func TestPoolRunsConcurrently(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var inFlight atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	out := make([]int, 8)
	p.Run(len(out), func(i int) {
		if inFlight.Add(1) >= 2 {
			once.Do(func() { close(release) })
		}
		select {
		case <-release:
		case <-time.After(10 * time.Second):
			t.Error("no concurrent task within 10s")
			once.Do(func() { close(release) })
		}
		inFlight.Add(-1)
		out[i] = i * 3
	})
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3)
		}
	}
}

// A closed pool degrades to inline execution instead of erroring, and
// Close is idempotent — the Fleet keeps serving reports after Close.
func TestPoolClosedRunsInline(t *testing.T) {
	p := NewPool(4)
	p.Close()
	p.Close() // idempotent
	out := make([]int, 10)
	p.Run(len(out), func(i int) { out[i] = i + 1 })
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("closed pool: out[%d] = %d, want %d", i, v, i+1)
		}
	}
	var nilPool *Pool
	nilPool.Run(3, func(i int) { out[i] = -i }) // nil pool also inline
	if out[1] != -1 {
		t.Fatalf("nil pool did not run inline")
	}
}

// The steady-state fan-out cost must stay O(1) allocations per round —
// one round header plus the closure — not O(workers) goroutine spawns.
// Guards the fleet's per-epoch hot path against allocation creep.
func TestPoolRunAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	p := NewPool(8)
	defer p.Close()
	sink := make([]int, 64)
	p.Run(len(sink), func(i int) { sink[i] = i }) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		p.Run(len(sink), func(i int) { sink[i] = i })
	})
	if allocs > 8 {
		t.Fatalf("pool round allocates %.1f objects, want ≤ 8", allocs)
	}
}

// benchFn is a tiny unit of work so the fan-out benchmark measures the
// pool's machinery, not payload.
var benchSink atomic.Int64

func benchFn(i int) { benchSink.Add(int64(i)) }

// BenchmarkPoolRound measures one persistent-pool fan-out of 256 tiny
// tasks across 8 long-lived workers.
func BenchmarkPoolRound(b *testing.B) {
	p := NewPool(8)
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(256, benchFn)
	}
}
