package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleCountMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		d := 1 + rng.Intn(3)
		p := 1 + rng.Intn(8)
		dt, bf, _ := buildBoth(rng, n, d, p)
		for q := 0; q < 10; q++ {
			b := randomBoxes(rng, 1, n, d)[0]
			if dt.SingleCount(b) != int64(bf.Count(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSingleCountOneRound(t *testing.T) {
	// The single-query algorithm needs exactly one gather round — no
	// balancing, no copying.
	rng := rand.New(rand.NewSource(43))
	dt, _, _ := buildBoth(rng, 256, 2, 8)
	dt.Machine().ResetMetrics()
	dt.SingleCount(randomBoxes(rng, 1, 256, 2)[0])
	if rounds := dt.Machine().Metrics().CommRounds(); rounds != 1 {
		t.Errorf("SingleCount used %d rounds, want 1", rounds)
	}
}

func TestSingleQueryWorkProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	n, p := 512, 8
	dt, bf, _ := buildBoth(rng, n, 2, p)
	work := make([]int, p)
	total := 0
	// A wide query should touch elements on several owners.
	b := randomBoxes(rng, 1, n, 2)[0]
	b.Lo[0], b.Hi[0] = 1, int32(n)
	work = dt.SingleQueryWork(b)
	for _, w := range work {
		total += w
	}
	if len(work) != p {
		t.Fatalf("work profile has %d entries", len(work))
	}
	// Sanity: the profile agrees with an actual parallel count.
	if dt.SingleCount(b) != int64(bf.Count(b)) {
		t.Error("wide single query wrong")
	}
	if total == 0 {
		t.Skip("query resolved entirely in the hat")
	}
}
