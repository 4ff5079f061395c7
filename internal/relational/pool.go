package relational

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// runTasks executes n tasks on up to workers goroutines. Tasks are handed
// out through an atomic counter, so faster workers steal the remaining
// load; every task must write only to its own result slots. With workers
// <= 1 the tasks run inline on the calling goroutine — the exact
// sequential path, no goroutines, no synchronization.
//
// A panicking task does not kill the process from a worker goroutine: the
// first panic value is captured and re-raised on the calling goroutine
// after the pool drains, so callers see the same panic-on-my-stack
// behavior as the sequential path (and the engine's public boundary can
// convert it to ErrInternal).
// hitBufPool recycles the per-segment match buffers of SelectMultiWorkers'
// shared passes; without it every batch re-grows one slice per segment
// from nil. Buffers are cleared before going back so they do not pin
// deleted rows.
var hitBufPool = sync.Pool{New: func() any {
	buf := make([]hit, 0, 512)
	return &buf
}}

func getHitBuf() []hit {
	return (*hitBufPool.Get().(*[]hit))[:0]
}

func putHitBuf(buf []hit) {
	if cap(buf) == 0 {
		return
	}
	for i := range buf {
		buf[i] = hit{}
	}
	buf = buf[:0]
	hitBufPool.Put(&buf)
}

func runTasks(n, workers int, task func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() { panicked = r })
						}
					}()
					task(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(fmt.Sprintf("relational: worker panic: %v", panicked))
	}
}
