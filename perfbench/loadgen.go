package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// inflight tracks how many generator requests are outstanding and the
// most there ever were, so a run can prove it stayed within its cap.
type inflight struct {
	cur, peak atomic.Int64
}

func (f *inflight) enter() {
	n := f.cur.Add(1)
	for {
		p := f.peak.Load()
		if n <= p || f.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (f *inflight) exit() { f.cur.Add(-1) }

// openLoop issues n operations on a fixed schedule — burst operations
// fall due together every tick, operation i at start + (i/burst)*tick —
// to a pool of workers goroutines, whatever the system's response time.
// When every worker is busy the due operations wait, so the schedule
// falls behind instead of slowing down: exec gets the due time and times
// its request from it, and openLoop returns how late each operation
// started (start minus due). Bursts let the generator sleep whole
// milliseconds, the granularity Go timers wake at on Linux, so lateness
// measures the system rather than the timer.
func openLoop(start time.Time, tick time.Duration, burst, n, workers int, exec func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, n)
	dueOf := func(i int) time.Time { return start.Add(time.Duration(i/burst) * tick) }
	ops := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ops {
				due := dueOf(i)
				late[i] = time.Since(due)
				exec(i, due)
			}
		}()
	}
	for i := 0; i < n; i++ {
		if d := time.Until(dueOf(i)); d > 0 {
			time.Sleep(d)
		}
		ops <- i
	}
	close(ops)
	wg.Wait()
	return late
}
