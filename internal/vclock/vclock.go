// Package vclock provides the clocks used throughout Reprowd.
//
// Reproducibility is the entire point of the system, so all timestamps that
// end up in lineage records (task publication times, answer submission times)
// are drawn from a Clock interface. Simulated experiments use Virtual, a
// deterministic monotonic clock; real deployments use Wall.
package vclock

import (
	"sync"
	"time"
)

// Clock supplies timestamps and supports advancing simulated time.
type Clock interface {
	// Now returns the current time. Successive calls return strictly
	// increasing times so that lineage records are totally ordered
	// (except on Sim, which trades strict monotonicity of Now for
	// cross-run determinism; see Sim).
	Now() time.Time
	// Sleep advances the clock by d (Virtual), blocks for d (Wall), or
	// blocks until the controller has advanced past d (Sim).
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once d has
	// elapsed — time.After in virtual time. On Virtual the clock is
	// advanced by d and the channel is already fired; on Sim the channel
	// fires when the controller advances past the deadline. There is no
	// Stop: an abandoned channel is garbage once it fires (wall timers
	// hold their resources until then, like time.After).
	After(d time.Duration) <-chan time.Time
}

// Epoch is the instant virtual clocks start at: the submission date of the
// Reprowd paper (arXiv:1609.00791, 3 Sep 2016, 00:00 UTC).
var Epoch = time.Date(2016, time.September, 3, 0, 0, 0, 0, time.UTC)

// Virtual is a deterministic, monotonic clock. Every call to Now advances
// the clock by Tick, guaranteeing distinct, reproducible timestamps. It is
// safe for concurrent use.
type Virtual struct {
	mu   sync.Mutex
	now  time.Time
	tick time.Duration
}

// NewVirtual returns a Virtual clock starting at Epoch with a 1ms tick.
func NewVirtual() *Virtual {
	return NewVirtualAt(Epoch, time.Millisecond)
}

// NewVirtualAt returns a Virtual clock starting at start, advancing by tick
// on every Now call. A non-positive tick is replaced with 1ns.
func NewVirtualAt(start time.Time, tick time.Duration) *Virtual {
	if tick <= 0 {
		tick = time.Nanosecond
	}
	return &Virtual{now: start, tick: tick}
}

// Now returns the current virtual time and advances the clock by one tick.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = v.now.Add(v.tick)
	return v.now
}

// Peek returns the current virtual time without advancing the clock.
func (v *Virtual) Peek() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep advances the clock by d without blocking.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.mu.Unlock()
}

// AdvanceTo moves the clock forward to t. If t is not after the current
// time the clock is unchanged.
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	if t.After(v.now) {
		v.now = t
	}
	v.mu.Unlock()
}

// After advances the clock by d and returns an already-fired channel —
// a Virtual clock never blocks, so "d from now" is simply now after the
// advance. Loops that re-arm After on every iteration therefore spin
// rather than park under a Virtual clock; use Sim for code whose timer
// behavior is under test.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.Sleep(d)
	ch := make(chan time.Time, 1)
	ch <- v.Peek()
	return ch
}

// Wall is a Clock backed by the real system clock.
type Wall struct {
	mu   sync.Mutex
	last time.Time
}

// NewWall returns a wall clock whose Now is strictly increasing even if the
// system clock is read twice within its resolution.
func NewWall() *Wall { return &Wall{} }

// Now returns the system time, nudged forward if needed so that successive
// calls are strictly increasing.
func (w *Wall) Now() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := time.Now()
	if !t.After(w.last) {
		t = w.last.Add(time.Nanosecond)
	}
	w.last = t
	return t
}

// Sleep blocks for d.
func (w *Wall) Sleep(d time.Duration) { time.Sleep(d) }

// After is time.After.
func (w *Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Timeout returns a channel that fires once d has passed, without moving
// c: a bound on a wait for something other than the clock (a long poll
// that ends early on a wakeup). On Sim and Wall it is c.After(d). A
// Virtual clock cannot block and its After moves it forward, so a wait
// on it is bounded in wall time instead and leaves the clock untouched.
func Timeout(c Clock, d time.Duration) <-chan time.Time {
	if _, ok := c.(*Virtual); ok {
		return time.After(d)
	}
	return c.After(d)
}
