package core

import (
	"fmt"
	"math"
	"time"

	"dmc/internal/dist"
)

// Timeouts holds the retransmission timeouts t_{i,j} of the random-delay
// model (§VI-B): the time to wait after sending on path i before
// retransmitting on path j. Indices are 0-based into Network.Paths.
type Timeouts struct {
	// T[i][j] is t_{i,j}; a negative value means undefined — no waiting
	// time allows a useful retransmission within the lifetime (the paper's
	// t₁,₁ in Experiment 2).
	T [][]time.Duration
}

// Get returns t_{i,j} and whether it is defined.
func (t *Timeouts) Get(i, j int) (time.Duration, bool) {
	if i < 0 || i >= len(t.T) || j < 0 || j >= len(t.T[i]) {
		return -1, false
	}
	if t.T[i][j] < 0 {
		return -1, false
	}
	return t.T[i][j], true
}

// Set assigns t_{i,j} (use a negative duration to mark it undefined).
func (t *Timeouts) Set(i, j int, d time.Duration) { t.T[i][j] = d }

// NewTimeouts returns an n×n timeout table with every entry undefined.
func NewTimeouts(n int) *Timeouts {
	tt := &Timeouts{T: make([][]time.Duration, n)}
	for i := range tt.T {
		tt.T[i] = make([]time.Duration, n)
		for j := range tt.T[i] {
			tt.T[i][j] = -1
		}
	}
	return tt
}

// TimeoutOptions tunes the Eq. 34 optimization.
type TimeoutOptions struct {
	// GridStep is the coarse search resolution over (0, δ]. Zero means
	// 5 ms.
	GridStep time.Duration
	// RefineLevels is how many 10× grid refinements follow the coarse
	// pass. Zero means 2 (final resolution GridStep/100).
	RefineLevels int
	// ConvolutionNodes is the quadrature resolution for P(dᵢ+d_min ≤ t).
	// Zero means 1500.
	ConvolutionNodes int
}

func (o TimeoutOptions) withDefaults() TimeoutOptions {
	if o.GridStep <= 0 {
		o.GridStep = 5 * time.Millisecond
	}
	if o.RefineLevels <= 0 {
		o.RefineLevels = 2
	}
	if o.ConvolutionNodes <= 0 {
		o.ConvolutionNodes = 1500
	}
	return o
}

// OptimalTimeouts computes t_{i,j} for every ordered pair of real paths by
// maximizing Eq. 26/34:
//
//	t_{i,j} = argmax_t P(t + d_j ≤ δ) · P(d_i + d_min ≤ t),
//
// i.e. wait long enough that the acknowledgment had a chance to arrive,
// but retransmit early enough that the retransmission can still meet the
// deadline. The product is maximized in log space through directly
// computed tail probabilities, which resolves the optimum even when both
// factors are within machine epsilon of 1 (the regime of Experiment 2,
// where optima like t₂,₂ = 323 ms balance tails of magnitude 1e-17 and
// 1e-60).
func OptimalTimeouts(n *Network, opts TimeoutOptions) (*Timeouts, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	ack := n.Paths[n.AckPathIndex()].delayDist()

	out := NewTimeouts(len(n.Paths))
	for i := range n.Paths {
		rttDist := dist.NewSumNodes(n.Paths[i].delayDist(), ack, opts.ConvolutionNodes)
		for j := range n.Paths {
			dj := n.Paths[j].delayDist()
			score := func(t time.Duration) float64 {
				return logCDF(dj, n.Lifetime-t) + logCDF(rttDist, t)
			}
			if t, ok := maximizeOverGrid(score, 0, n.Lifetime, opts.GridStep, opts.RefineLevels); ok {
				out.T[i][j] = t
			}
		}
	}
	return out, nil
}

// logCDF evaluates ln P(D ≤ x) with full relative precision on both ends:
// via the direct tail when the CDF is close to 1, via the CDF itself
// otherwise.
func logCDF(d dist.Delay, x time.Duration) float64 {
	tail := d.Tail(x)
	if tail < 0.5 {
		return math.Log1p(-tail)
	}
	cdf := d.CDF(x)
	if cdf <= 0 {
		return math.Inf(-1)
	}
	return math.Log(cdf)
}

// coarseMinPoints is the minimum coarse-grid resolution of
// maximizeOverGrid: intervals shorter than coarseMinPoints×step are
// subdivided so the scan still sees the interval's interior.
const coarseMinPoints = 8

// maximizeOverGrid scans (lo, hi] at the given step, then refines around
// the best point with `levels` successive 10× finer passes. The step is
// clamped so short intervals (a lifetime below the coarse grid step)
// still evaluate at least coarseMinPoints interior points, and hi itself
// is always probed — otherwise a network with Lifetime < GridStep would
// evaluate zero points and report every timeout undefined even when
// feasible ones exist. Returns ok = false when the objective is -Inf
// everywhere (no feasible t).
func maximizeOverGrid(f func(time.Duration) float64, lo, hi time.Duration, step time.Duration, levels int) (time.Duration, bool) {
	if hi <= lo || step <= 0 {
		return -1, false
	}
	if maxStep := (hi - lo) / coarseMinPoints; step > maxStep {
		step = maxStep
		if step <= 0 {
			step = hi - lo // sub-nanosecond-per-point interval: single probe at hi
		}
	}
	bestT := time.Duration(-1)
	bestV := math.Inf(-1)
	for t := lo + step; t <= hi; t += step {
		if v := f(t); v > bestV {
			bestV = v
			bestT = t
		}
	}
	// The coarse loop reaches hi only when the width divides evenly;
	// probe it explicitly so the interval's endpoint is never skipped.
	if v := f(hi); v > bestV {
		bestV = v
		bestT = hi
	}
	if math.IsInf(bestV, -1) || bestT < 0 {
		return -1, false
	}
	for level := 0; level < levels; level++ {
		fine := step / 10
		if fine <= 0 {
			break
		}
		lo2 := bestT - step
		if lo2 < lo {
			lo2 = lo
		}
		hi2 := bestT + step
		if hi2 > hi {
			hi2 = hi
		}
		for t := lo2 + fine; t <= hi2; t += fine {
			if v := f(t); v > bestV {
				bestV = v
				bestT = t
			}
		}
		step = fine
	}
	return bestT, true
}

// DeterministicTimeouts returns the fixed-delay timeouts tᵢ = dᵢ + d_min
// (Eq. 4) as a full pair table (the wait before retransmitting on any path
// depends only on the initial path under fixed delays), plus a safety
// margin.
func DeterministicTimeouts(n *Network, margin time.Duration) (*Timeouts, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	dmin := n.MinDelay()
	out := NewTimeouts(len(n.Paths))
	for i, p := range n.Paths {
		for j := range n.Paths {
			out.T[i][j] = p.meanDelay() + dmin + margin
		}
	}
	return out, nil
}

// String renders the timeout table.
func (t *Timeouts) String() string {
	s := ""
	for i := range t.T {
		for j := range t.T[i] {
			if d, ok := t.Get(i, j); ok {
				s += fmt.Sprintf("t[%d,%d]=%v ", i+1, j+1, d.Round(time.Millisecond))
			} else {
				s += fmt.Sprintf("t[%d,%d]=undef ", i+1, j+1)
			}
		}
	}
	return s
}
