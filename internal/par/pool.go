// Package par is the repository's one goroutine fan-out primitive: a
// bounded worker pool that evaluates fn(0), …, fn(n-1) with results
// landing by index, so parallelism changes wall-clock time, never
// output. It is a leaf package — it imports nothing from the module —
// so any layer can fan out without pulling in another layer's code.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent bounded worker pool for index fan-outs: fn(0),
// …, fn(n-1) evaluated across at most the pool's worker count of
// goroutines, results deterministic because each index writes only its
// own slot. The goroutines are created once and reused across rounds
// instead of being respawned per call, so a fleet running thousands of
// lock-step epochs pays the spawn cost once and keeps worker stacks
// warm.
//
// A Pool is owned by a single driving goroutine: Run and Close must not
// be called concurrently with each other. The fn callbacks themselves
// run concurrently on the workers.
type Pool struct {
	workers int
	rounds  []chan *poolRound
	closed  bool
}

// poolRound is one fan-out: workers claim indices from next until n is
// exhausted, then check in on wg.
type poolRound struct {
	n    int
	fn   func(i int)
	next atomic.Int64
	wg   sync.WaitGroup
}

// NewPool starts a pool of long-lived workers; workers <= 0 means one
// per CPU. Idle workers block on their round channel and cost nothing.
// Call Close when the pool's owner is done with it; a closed pool
// degrades to inline execution rather than erroring, so owners that
// outlive their hot loop (a Fleet kept alive for ops scrapes) stay
// usable.
func NewPool(workers int) *Pool {
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: w, rounds: make([]chan *poolRound, w)}
	for k := range p.rounds {
		ch := make(chan *poolRound, 1)
		p.rounds[k] = ch
		go func() {
			for r := range ch {
				for {
					i := int(r.next.Add(1)) - 1
					if i >= r.n {
						break
					}
					r.fn(i)
				}
				r.wg.Done()
			}
		}()
	}
	return p
}

// Run evaluates fn(0), …, fn(n-1) across the pool and returns when all
// calls have completed. Results are index-deterministic: parallelism
// changes wall-clock time, never which fn call handles which index.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.closed || p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	r := &poolRound{n: n, fn: fn}
	r.wg.Add(w)
	for k := 0; k < w; k++ {
		p.rounds[k] <- r
	}
	r.wg.Wait()
}

// Close releases the worker goroutines. Close is idempotent; Run on a
// closed pool executes inline on the calling goroutine.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.rounds {
		close(ch)
	}
}

// Map evaluates fn(0), …, fn(n-1) on a transient Pool of at most
// workers goroutines (workers <= 0 means one per CPU) and returns the
// results in index order, or nil when n <= 0. It is for one-shot
// fan-outs; a caller that fans out repeatedly should own a Pool.
func Map[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]T, n)
	p := NewPool(min(workers, n))
	defer p.Close()
	p.Run(n, func(i int) { out[i] = fn(i) })
	return out
}
