// Package balance implements the load-balancing machinery of Algorithm
// Search steps 2–4 and Algorithm Report (§4): replicate congested parts of
// the forest in proportion to the number of queries that want to visit
// them ("make c_j = |QF_j| / (|Q”|/p) copies of F_j and distribute them
// evenly"), and redistribute weighted result sets so every processor
// materializes an O(k/p) share.
package balance

// Plan is the paper's replication plan for one search batch: how many
// copies each forest group gets, where the copies (slots) live, and which
// copy serves the r-th request of a group. All quantities are computed
// identically on every processor from the globally known demand vector, so
// no extra communication is needed beyond exchanging the demands.
type Plan struct {
	// P is the machine width.
	P int
	// Demand[j] is |QF_j|: the number of subqueries that must visit
	// group j.
	Demand []int
	// DTotal is |Q''| = Σ Demand.
	DTotal int
	// Copies[j] is c_j; zero for groups nobody wants to visit.
	Copies []int
	// offsets[j] is Σ_{i<j} Copies[i]; slots of group j are
	// offsets[j]..offsets[j]+Copies[j]-1.
	offsets []int
	// Slots is Σ Copies ≤ 2·P.
	Slots int
}

// NewPlan computes the plan for the demand vector, one entry per group:
// the paper's groups are the processor parts F_0..F_(p-1), so len(demand)
// is p. reuse, when non-nil, is recomputed in place and returned, keeping
// its vectors' storage — how a search batch plans without allocating; nil
// allocates a fresh plan.
func NewPlan(p int, demand []int, reuse *Plan) *Plan {
	pl := reuse
	if pl == nil {
		pl = &Plan{}
	}
	pl.P, pl.DTotal, pl.Slots = p, 0, 0
	pl.Demand = append(pl.Demand[:0], demand...)
	pl.Copies = resized(pl.Copies, len(demand))
	pl.offsets = resized(pl.offsets, len(demand))
	for _, d := range demand {
		pl.DTotal += d
	}
	for j, d := range demand {
		pl.offsets[j] = pl.Slots
		if d == 0 {
			continue
		}
		// c_j = ⌈|QF_j| / (|Q''|/p)⌉ = ⌈d·p / D⌉, at least one copy for
		// any demanded group.
		c := (d*p + pl.DTotal - 1) / pl.DTotal
		if c < 1 {
			c = 1
		}
		if c > p {
			c = p
		}
		pl.Copies[j] = c
		pl.Slots += c
	}
	return pl
}

// resized returns a zeroed vector of length n, in s's storage when it fits.
func resized(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Host returns the processor hosting a slot. Slots are dealt round-robin,
// which gives every processor at most ⌈Slots/P⌉ ≤ 2 copies — the "each
// processor stores O(1) copies" guarantee of the balancing lemma.
func (pl *Plan) Host(slot int) int { return slot % pl.P }

// Copy returns which of group j's copies serves its r-th request (0-based
// global rank within the group). Requests are spread evenly over the
// group's copies, copy ⌊r·c_j/d_j⌋, so a copy serves at most
// ⌈Demand[j]/c_j⌉ ≤ ⌈DTotal/P⌉ + 1 requests.
func (pl *Plan) Copy(j, r int) int {
	c := pl.Copies[j]
	if c == 0 {
		panic("balance: routing a request to an undemanded group")
	}
	d := pl.Demand[j]
	if d == 0 {
		panic("balance: group has copies but no demand")
	}
	return min(r*c/d, c-1)
}

// CopyHost returns the processor hosting copy k of group j.
func (pl *Plan) CopyHost(j, k int) int { return pl.Host(pl.offsets[j] + k) }

// Route returns the processor that serves the r-th request of group j:
// the host of copy Copy(j, r).
func (pl *Plan) Route(j, r int) int { return pl.CopyHost(j, pl.Copy(j, r)) }

// MaxServed returns the largest number of requests any single processor
// serves under the plan — the quantity the balancing lemma bounds by
// O(DTotal/P).
func (pl *Plan) MaxServed() int {
	served := make(map[int]int)
	for j, d := range pl.Demand {
		for r := 0; r < d; r++ {
			served[pl.Route(j, r)]++
		}
	}
	mx := 0
	for _, s := range served {
		if s > mx {
			mx = s
		}
	}
	return mx
}

// CopiesPerHost returns how many group copies each processor hosts.
func (pl *Plan) CopiesPerHost() []int {
	out := make([]int, pl.P)
	for s := 0; s < pl.Slots; s++ {
		out[pl.Host(s)]++
	}
	return out
}

// Share is a piece of a weighted entry assigned to one processor: the
// entry's local weight interval [Lo, Hi) goes to processor Proc.
type Share struct {
	Proc   int
	Lo, Hi int
}

// SplitWeighted assigns the output positions [off, off+w) of one weighted
// entry to the contiguous blocks of a total weight `total` split over p
// processors (Algorithm Report: dest(q) = ⌊p·psw(q)/Σw⌋, extended to
// entries that straddle block boundaries), appending the shares to dst.
// The appended shares are entry-relative, ordered, disjoint and cover
// [0, w); entries that are disjoint in output positions get at most
// (number of entries) + p - 1 shares between them.
func SplitWeighted(dst []Share, off, w, total, p int) []Share {
	pos := off
	end := off + w
	for pos < end {
		proc := ownerOf(pos, total, p)
		// Block of proc ends at blockStart(proc+1).
		blockEnd := end
		if proc < p-1 {
			if be := (proc + 1) * total / p; be < blockEnd {
				blockEnd = be
			}
		}
		if blockEnd <= pos { // defensive: always make progress
			blockEnd = pos + 1
		}
		dst = append(dst, Share{Proc: proc, Lo: pos - off, Hi: blockEnd - off})
		pos = blockEnd
	}
	return dst
}

// ownerOf maps global output position g onto one of p contiguous blocks of
// a total of n positions.
func ownerOf(g, n, p int) int {
	if n == 0 {
		return 0
	}
	j := g * p / n
	if j > p-1 {
		j = p - 1
	}
	for j > 0 && g < j*n/p {
		j--
	}
	for j < p-1 && g >= (j+1)*n/p {
		j++
	}
	return j
}
