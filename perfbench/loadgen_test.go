package main

import (
	"sync"
	"testing"
	"time"
)

// An open loop times operations from when they were due: when the
// system is slower than the schedule, later operations start late and
// their latency includes the wait.
func TestOpenLoopLatenessFromDueTime(t *testing.T) {
	const (
		n       = 12
		tick    = 2 * time.Millisecond
		service = 10 * time.Millisecond // 5x slower than the schedule
	)
	var (
		mu      sync.Mutex
		fromDue = make([]time.Duration, n)
		peak    inflight
	)
	start := time.Now().Add(5 * time.Millisecond)
	late := openLoop(start, tick, 1, n, 1, func(i int, due time.Time) {
		peak.enter()
		defer peak.exit()
		if want := start.Add(time.Duration(i) * tick); !due.Equal(want) {
			t.Errorf("op %d due %v, want %v", i, due.Sub(start), want.Sub(start))
		}
		time.Sleep(service)
		mu.Lock()
		fromDue[i] = time.Since(due)
		mu.Unlock()
	})
	if peak.peak.Load() != 1 {
		t.Errorf("one worker ran %d operations at once", peak.peak.Load())
	}
	// Operation i cannot start before i services have completed, so it
	// is at least i*(service-tick) late, and its latency from the due
	// time includes that wait.
	for i := 1; i < n; i++ {
		minLate := time.Duration(i) * (service - tick)
		if late[i] < minLate {
			t.Errorf("op %d started %v late, want at least %v", i, late[i], minLate)
		}
		if fromDue[i] < late[i]+service {
			t.Errorf("op %d latency from due %v < lateness %v + service %v", i, fromDue[i], late[i], service)
		}
	}
}

// On schedule (system faster than the arrivals), operations start close
// to their due time, and a burst falls due at one instant.
func TestOpenLoopBurstsShareDueTime(t *testing.T) {
	const n, burst = 9, 3
	tick := 20 * time.Millisecond
	dues := make([]time.Time, n)
	start := time.Now().Add(5 * time.Millisecond)
	late := openLoop(start, tick, burst, n, 3, func(i int, due time.Time) { dues[i] = due })
	for i := range dues {
		if want := start.Add(time.Duration(i/burst) * tick); !dues[i].Equal(want) {
			t.Errorf("op %d due at %v, want %v", i, dues[i].Sub(start), want.Sub(start))
		}
		if late[i] < 0 || late[i] > tick {
			t.Errorf("op %d started %v late on an idle schedule", i, late[i])
		}
	}
}
