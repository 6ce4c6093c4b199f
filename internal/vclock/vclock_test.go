package vclock

import (
	"sync"
	"testing"
	"time"
)

func TestVirtualMonotonic(t *testing.T) {
	v := NewVirtual()
	prev := v.Now()
	for i := 0; i < 1000; i++ {
		cur := v.Now()
		if !cur.After(prev) {
			t.Fatalf("Now not strictly increasing: %v then %v", prev, cur)
		}
		prev = cur
	}
}

func TestVirtualStartsAtEpoch(t *testing.T) {
	v := NewVirtual()
	first := v.Now()
	if first.Sub(Epoch) != time.Millisecond {
		t.Fatalf("first Now = %v, want Epoch+1ms", first)
	}
}

func TestVirtualDeterministic(t *testing.T) {
	a, b := NewVirtual(), NewVirtual()
	for i := 0; i < 100; i++ {
		if !a.Now().Equal(b.Now()) {
			t.Fatal("two fresh virtual clocks diverged")
		}
	}
}

func TestVirtualSleepAndAdvance(t *testing.T) {
	v := NewVirtual()
	before := v.Peek()
	v.Sleep(time.Hour)
	if got := v.Peek().Sub(before); got != time.Hour {
		t.Fatalf("Sleep advanced %v", got)
	}
	v.Sleep(-time.Hour) // negative sleep is a no-op
	if got := v.Peek().Sub(before); got != time.Hour {
		t.Fatalf("negative Sleep moved the clock: %v", got)
	}
	target := v.Peek().Add(time.Minute)
	v.AdvanceTo(target)
	if !v.Peek().Equal(target) {
		t.Fatalf("AdvanceTo: %v, want %v", v.Peek(), target)
	}
	v.AdvanceTo(target.Add(-time.Minute)) // backwards is a no-op
	if !v.Peek().Equal(target) {
		t.Fatal("AdvanceTo moved the clock backwards")
	}
}

func TestVirtualTickFloor(t *testing.T) {
	v := NewVirtualAt(Epoch, 0) // non-positive tick → 1ns
	a, b := v.Now(), v.Now()
	if b.Sub(a) != time.Nanosecond {
		t.Fatalf("tick floor: %v", b.Sub(a))
	}
}

func TestVirtualConcurrentUse(t *testing.T) {
	v := NewVirtual()
	const goroutines, calls = 8, 500
	var wg sync.WaitGroup
	times := make([][]time.Time, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				times[g] = append(times[g], v.Now())
			}
		}(g)
	}
	wg.Wait()
	// All timestamps globally unique.
	seen := map[int64]bool{}
	for _, ts := range times {
		for _, tm := range ts {
			ns := tm.UnixNano()
			if seen[ns] {
				t.Fatalf("duplicate timestamp %v under concurrency", tm)
			}
			seen[ns] = true
		}
	}
}

func TestWallStrictlyIncreasing(t *testing.T) {
	w := NewWall()
	prev := w.Now()
	for i := 0; i < 10000; i++ {
		cur := w.Now()
		if !cur.After(prev) {
			t.Fatalf("wall Now not strictly increasing")
		}
		prev = cur
	}
}

// TestTimeoutLeavesClocksAlone: a Timeout on a Virtual clock fires in
// wall time without moving the clock, and on a Sim clock it waits for the
// controller like After.
func TestTimeoutLeavesClocksAlone(t *testing.T) {
	v := NewVirtual()
	before := v.Peek()
	select {
	case <-Timeout(v, 10*time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("Timeout on a Virtual clock never fired")
	}
	if got := v.Peek(); !got.Equal(before) {
		t.Fatalf("Timeout moved the Virtual clock from %v to %v", before, got)
	}

	s := NewSim()
	ch := Timeout(s, time.Second)
	select {
	case <-ch:
		t.Fatal("Timeout on a Sim clock fired before the controller advanced")
	case <-time.After(20 * time.Millisecond):
	}
	s.Advance(time.Second)
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("Timeout on a Sim clock did not fire after Advance")
	}
}
