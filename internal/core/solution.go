package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"dmc/internal/lp"
)

// Dispatch names which solve core produced a Solution.
type Dispatch string

const (
	// DispatchDense is plain dense enumeration of every combination.
	DispatchDense Dispatch = "dense"
	// DispatchCG is column generation over a restricted master problem.
	DispatchCG Dispatch = "cg"
)

// SolveStats records how a solve was dispatched and what it cost.
type SolveStats struct {
	// Dispatch is the solve core that produced the solution.
	Dispatch Dispatch
	// Columns is how many LP columns the (final) master problem held:
	// the full combination count for dense, or the generated pool for
	// column generation.
	Columns int
	// CGIterations counts restricted-master solves (0 unless column
	// generation ran).
	CGIterations int
	// LPPivots counts the simplex pivots of every master the solve ran
	// (the sum of their lp.Solution.Iterations): the dense master, or
	// each restricted master of column generation, infeasible min-cost
	// masters and refresh re-solves included.
	LPPivots int
	// Warm reports the solve ran incrementally from a Solver's
	// persistent re-solve state (Solver.Resolve with a matching network
	// shape): columns were rebuilt in place and, for column generation,
	// the pooled columns were repriced instead of regenerated.
	Warm bool
	// PhaseISkipped reports the first LP solve of a column-generation
	// re-solve re-installed the previous optimal basis as a feasible
	// starting point and skipped simplex Phase I entirely. It is always
	// false on the dense dispatch, which solves every master cold.
	PhaseISkipped bool
	// PoolHits counts column-generation columns reused (repriced in
	// place) from the persistent pool; PoolAdded counts columns the
	// pricing oracle newly generated during this solve. Both are zero
	// outside the CG dispatch.
	PoolHits  int
	PoolAdded int
	// PriceNodes counts the search nodes the deterministic-delay pricing
	// oracle expanded over every pricing pass of the solve, each node
	// once. It is zero on the dense dispatch and for the random-delay
	// objective, whose oracle scans pairs without a search.
	PriceNodes int
}

// Solution is an optimal sending strategy: the fraction of application
// traffic to assign to every path combination, plus the resulting metrics
// of Table II.
type Solution struct {
	// Network is the scenario the solution was computed for.
	Network *Network
	// X is the optimal traffic split x′ over path combinations, parallel
	// to Combos(). For a plain dense solve it is indexed by the Eq. 13
	// combination index (little-endian path digits, blackhole = digit 0);
	// column-generated solves carry only the combinations their master
	// problem held. It sums to 1 either way.
	X []float64
	// Quality is Q = G/λ ∈ [0, 1] (Eq. 6): the fraction of application
	// data expected to arrive before its deadline.
	Quality float64
	// Stats records which solve core ran and what it cost.
	Stats SolveStats

	m *model
	// spec is the shape of the master the solution solved, over the
	// column tables below; Problem rebuilds the LP from the two.
	spec masterSpec
	// cols are the column tables, parallel to X: per combination its
	// delivery probability, its cost and the path and survival mass of
	// each of its attempts, whose sums per path are its send shares.
	cols columns
	// colIndex maps a combination's packed key to its position in the
	// tables above; nil means the dense enumeration order.
	colIndex map[uint64]int
}

// ComboShare pairs a path combination with its traffic share.
type ComboShare struct {
	// Combo is the path combination (model indexing: 0 = blackhole).
	Combo Combo
	// Fraction is the share of application traffic assigned to it.
	Fraction float64
	// DeliveryProb is p_l, its in-time delivery probability.
	DeliveryProb float64
}

// Fraction returns the traffic share of a specific combination, given in
// model indexing (0 = blackhole, k = Paths[k-1]). Combinations the
// solve's master problem never carried (not generated) hold zero
// traffic by construction.
func (s *Solution) Fraction(c Combo) float64 {
	if len(c) != s.m.m {
		return 0
	}
	for _, i := range c {
		if i < 0 || i >= s.m.base {
			return 0
		}
	}
	if s.colIndex != nil {
		if pos, ok := s.colIndex[s.m.packKey(c)]; ok {
			return s.X[pos]
		}
		return 0
	}
	// A dense solve's variable index is the combination's packed key.
	return s.X[s.m.packKey(c)]
}

// ActiveCombos returns the combinations carrying at least minFraction of
// the traffic, sorted by decreasing share (ties by combination key).
func (s *Solution) ActiveCombos(minFraction float64) []ComboShare {
	active := func(x float64) bool { return x >= minFraction && x > 0 }
	n := 0
	for _, x := range s.X {
		if active(x) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]ComboShare, 0, n)
	for l, x := range s.X {
		if active(x) {
			out = append(out, ComboShare{Combo: s.cols.combo(l), Fraction: x, DeliveryProb: s.cols.delivery[l]})
		}
	}
	slices.SortFunc(out, func(a, b ComboShare) int {
		if c := cmp.Compare(b.Fraction, a.Fraction); c != 0 {
			return c
		}
		return cmp.Compare(s.m.packKey(a.Combo), s.m.packKey(b.Combo))
	})
	return out
}

// SentRate returns Sᵢ (Eq. 2): the expected bit rate sent along real path
// i (0-based index into Network.Paths).
func (s *Solution) SentRate(i int) float64 {
	model := i + 1 // shift past the blackhole
	var rate float64
	var buf [8]pathShare
	for l, x := range s.X {
		if x != 0 { // most of a column-generation pool carries no traffic
			for _, ps := range s.cols.pathShares(l, buf[:0]) {
				if ps.path == model {
					rate += x * ps.share
				}
			}
		}
	}
	return rate * s.Network.Rate
}

// SentRates returns Sᵢ for every real path in one pass over the traffic
// split, reusing dst's storage when it is large enough. Each path sums
// in SentRate's order, so SentRates(nil)[i] equals SentRate(i) bit for
// bit.
func (s *Solution) SentRates(dst []float64) []float64 {
	base := s.m.base
	dst = slices.Grow(dst[:0], base-1)[:base-1]
	clear(dst)
	var buf [8]pathShare
	for l, x := range s.X {
		if x != 0 {
			for _, ps := range s.cols.pathShares(l, buf[:0]) {
				dst[ps.path-1] += x * ps.share
			}
		}
	}
	for i := range dst {
		dst[i] *= s.Network.Rate
	}
	return dst
}

// DropRate returns the bit rate deliberately discarded via the blackhole
// on first transmission.
func (s *Solution) DropRate() float64 {
	var rate float64
	for l, x := range s.X {
		if x != 0 && s.cols.digits[l*s.cols.trans] == 0 {
			rate += x
		}
	}
	return rate * s.Network.Rate
}

// Goodput returns G = Q·λ (Eqs. 5–6) in bits per second.
func (s *Solution) Goodput() float64 { return s.Quality * s.Network.Rate }

// Cost returns C (Eq. 7): the expected total cost per second.
func (s *Solution) Cost() float64 {
	var c float64
	for l, x := range s.X {
		if x != 0 {
			c += x * s.cols.costs[l]
		}
	}
	return c * s.Network.Rate
}

// Timeouts returns the deterministic retransmission timeouts tᵢ = dᵢ +
// d_min (Eq. 4) for each real path, plus an optional safety margin (the
// paper's Experiment 1 adds 100 ms for queueing deviation).
func (s *Solution) Timeouts(margin time.Duration) []time.Duration {
	out := make([]time.Duration, len(s.Network.Paths))
	dmin := s.Network.MinDelay()
	for i, p := range s.Network.Paths {
		out[i] = p.meanDelay() + dmin + margin
	}
	return out
}

// Problem exposes the underlying linear program (for diagnostics and the
// solver-ablation benchmarks): the master the solution solved, over its
// own columns — every combination for the dense dispatch, the final pool
// for column generation. Problem rebuilds it from the solution's column
// tables as a fresh dense copy on every call. A Resolve solution's
// tables are rewritten by the next Resolve on the same Solver.
func (s *Solution) Problem() *lp.Problem {
	var cm cgMaster
	cm.load(s.m, s.spec, &s.cols)
	return cm.sp.Dense()
}

// Combos returns every path combination in variable order (parallel to
// X). Each call allocates the returned slice; its combinations are
// headers into the solution's shared digit table, which callers must
// not mutate.
func (s *Solution) Combos() []Combo {
	out := make([]Combo, s.cols.len())
	for l := range out {
		out[l] = s.cols.combo(l)
	}
	return out
}

// DeliveryProbs returns p_l per combination in variable order (parallel to
// X). The slice is shared; callers must not mutate it.
func (s *Solution) DeliveryProbs() []float64 { return s.cols.delivery }

// String renders the strategy like the paper's Table IV rows.
func (s *Solution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "quality %.4f (%.1f%%)", s.Quality, s.Quality*100)
	for _, cs := range s.ActiveCombos(1e-9) {
		fmt.Fprintf(&b, "  %s=%.4g", cs.Combo, cs.Fraction)
	}
	return b.String()
}
