package cgm

import (
	"testing"
	"time"
)

// TestShareGovernorUncapped pins the nil-governor contract: shares
// outside (0, 1) mean "no cap", and every method on the nil receiver is
// a free no-op — callers never branch on whether a cap is configured.
func TestShareGovernorUncapped(t *testing.T) {
	for _, share := range []float64{0, -0.5, 1, 1.5} {
		if g := NewShareGovernor(share); g != nil {
			t.Fatalf("NewShareGovernor(%v) = %v, want nil (uncapped)", share, g)
		}
	}
	var g *ShareGovernor
	if w := g.Admit(); w != 0 {
		t.Fatalf("nil governor admitted with wait %v", w)
	}
	g.Charge(time.Second)
	if w := g.Admit(); w != 0 {
		t.Fatalf("nil governor waited %v after a charge", w)
	}
}

// TestShareGovernorPaces checks the token-bucket arithmetic: charging
// busy time at a 25% share must stretch wall-time to roughly
// (busy − burst) / share, because sleeping accrues credit at share per
// second and Admit sleeps exactly the debt off.
func TestShareGovernorPaces(t *testing.T) {
	const share = 0.25
	g := NewShareGovernor(share)
	if g == nil {
		t.Fatal("NewShareGovernor(0.25) = nil")
	}

	const step, steps = 2 * time.Millisecond, 30
	const busy = step * steps // 60ms charged without doing real work
	start := time.Now()
	waits, waited := 0, time.Duration(0)
	admit := func() {
		if w := g.Admit(); w > 0 {
			waits++
			waited += w
		}
	}
	for i := 0; i < steps; i++ {
		admit()
		g.Charge(step)
	}
	admit() // settle the final debt
	wall := time.Since(start)

	// The burst (20ms) rides for free; the remaining 40ms of busy time
	// must be paced out to 40ms/0.25 = 160ms of wall-time. Bound it
	// loosely from below (sleep can only overshoot) and sanely from
	// above so a broken refill that over-credits still fails.
	min := time.Duration(float64(busy-governorBurst) / share)
	if wall < min*9/10 {
		t.Fatalf("governor paced %v of busy time in %v wall; want >= ~%v", busy, wall, min)
	}
	if wall > 5*min {
		t.Fatalf("governor took %v for %v of busy time; pacing is wildly over-throttled", wall, busy)
	}
	if waits == 0 || waited == 0 {
		t.Fatalf("governor paced load without reporting a wait: waits=%d, waited %v", waits, waited)
	}
}

// TestShareGovernorBurstRidesFree: work totalling less than the banked
// burst proceeds without a single sleep.
func TestShareGovernorBurstRidesFree(t *testing.T) {
	g := NewShareGovernor(0.5)
	for i := 0; i < 4; i++ {
		if w := g.Admit(); w != 0 {
			t.Fatalf("admit %d slept %v inside the burst budget", i, w)
		}
		g.Charge(time.Millisecond)
	}
}
