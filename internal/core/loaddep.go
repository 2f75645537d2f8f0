package core

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// LoadModel describes how a path's effective characteristics respond to
// its own utilization (§IX-A: "as utilization increases, latency also
// increases" and "a mostly-saturated link … may exhibit a higher loss
// rate"). The zero value means load-independent characteristics.
type LoadModel struct {
	// QueueFactor adds M/M/1-style queueing delay QueueFactor·u/(1−u) at
	// utilization u (clamped below saturation). Zero disables.
	QueueFactor time.Duration
	// LossKnee and LossSlope add LossSlope·(u−LossKnee)/(1−LossKnee) of
	// extra loss once utilization passes the knee. LossSlope zero
	// disables.
	LossKnee  float64
	LossSlope float64
}

func (m LoadModel) validate(i int) error {
	if m.QueueFactor < 0 {
		return fmt.Errorf("core: load model %d: negative queue factor", i)
	}
	if m.LossKnee < 0 || m.LossKnee >= 1 || math.IsNaN(m.LossKnee) {
		return fmt.Errorf("core: load model %d: loss knee %v outside [0,1)", i, m.LossKnee)
	}
	if m.LossSlope < 0 || math.IsNaN(m.LossSlope) {
		return fmt.Errorf("core: load model %d: negative loss slope", i)
	}
	return nil
}

// zero reports whether the model changes nothing.
func (m LoadModel) zero() bool { return m.QueueFactor == 0 && m.LossSlope == 0 }

// apply returns the effective delay and loss of a base path at
// utilization u ∈ [0, 1].
func (m LoadModel) apply(base Path, u float64) (time.Duration, float64) {
	if u < 0 {
		u = 0
	}
	const uMax = 0.999 // keep u/(1-u) finite
	if u > uMax {
		u = uMax
	}
	delay := base.Delay
	if m.QueueFactor > 0 {
		delay += time.Duration(float64(m.QueueFactor) * u / (1 - u))
	}
	loss := base.Loss
	if m.LossSlope > 0 && u > m.LossKnee {
		loss += m.LossSlope * (u - m.LossKnee) / (1 - m.LossKnee)
		if loss > 1 {
			loss = 1
		}
	}
	return delay, loss
}

// PathLoad reports one path's converged operating point.
type PathLoad struct {
	// Utilization is Sᵢ/bᵢ under the returned solution.
	Utilization float64
	// EffectiveDelay and EffectiveLoss are the load-adjusted
	// characteristics the final solve used.
	EffectiveDelay time.Duration
	EffectiveLoss  float64
}

// LoadAwareOptions tunes the fixed-point iteration.
type LoadAwareOptions struct {
	// MaxIterations bounds the solve loop; zero means 100.
	MaxIterations int
	// Damping blends utilizations across iterations in (0, 1]; zero
	// means 0.5. Smaller is more stable, larger converges faster.
	Damping float64
	// Tolerance is the per-path utilization convergence threshold; zero
	// means 1e-3.
	Tolerance float64
	// UtilizationCap, when in (0, 1), caps every path's planned
	// utilization: the LP sees bandwidth bᵢ·cap and load responses are
	// evaluated at most at the cap. This is the §IX-A headroom remedy
	// for bistable configurations whose saturation delay exceeds the
	// lifetime (see SolveQualityLoadAware). Zero means no cap.
	UtilizationCap float64
}

func (o LoadAwareOptions) withDefaults() LoadAwareOptions {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 0.5
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-3
	}
	if o.UtilizationCap <= 0 || o.UtilizationCap > 1 {
		o.UtilizationCap = 1
	}
	return o
}

// ErrLoadAwareDiverged reports that the §IX-A fixed point did not
// converge within the iteration budget.
var ErrLoadAwareDiverged = errors.New("core: load-aware solve did not converge")

// SolveQualityLoadAware solves the §IX-A variant where path delay and
// loss depend on the traffic the solution itself places on them. Since
// changes in x feed back into the LP coefficients, Eq. 10 becomes
// non-linear; following the paper's prescription, the solver iterates:
// solve the LP with current effective characteristics, measure per-path
// utilization, update effective delay/loss through each path's LoadModel
// (with damping), and repeat to a fixed point.
//
// models must have one entry per path (zero values for load-independent
// paths). The returned PathLoad slice reports the converged operating
// point. Returns ErrLoadAwareDiverged (wrapped) if oscillation persists.
//
// Caveat: a fixed point need not exist. If a path's saturation delay
// exceeds the lifetime (QueueFactor large relative to the deadline
// slack), the system is bistable — the LP saturates the path while it
// looks usable, which makes it unusable — and the iteration detects the
// resulting limit cycle as divergence. The §IX-A remedy is explicit
// headroom: set LoadAwareOptions.UtilizationCap (e.g. 0.9) so planned
// utilization, and hence the modeled queueing delay, stays below the
// cliff.
func SolveQualityLoadAware(n *Network, models []LoadModel, opts LoadAwareOptions) (*Solution, []PathLoad, error) {
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	if len(models) != len(n.Paths) {
		return nil, nil, fmt.Errorf("core: %d load models for %d paths", len(models), len(n.Paths))
	}
	for i, m := range models {
		if err := m.validate(i); err != nil {
			return nil, nil, err
		}
	}
	opts = opts.withDefaults()

	allZero := true
	for _, m := range models {
		if !m.zero() {
			allZero = false
		}
	}

	util := make([]float64, len(n.Paths))
	var rates []float64
	var sol *Solution
	eff := *n
	damping := opts.Damping
	prevDelta := math.Inf(1)
	for iter := 0; iter < opts.MaxIterations; iter++ {
		// Build the effective network at the current utilizations.
		eff.Paths = append([]Path(nil), n.Paths...)
		for i := range eff.Paths {
			d, l := models[i].apply(n.Paths[i], util[i])
			eff.Paths[i].Delay = d
			eff.Paths[i].Loss = l
			eff.Paths[i].Bandwidth = n.Paths[i].Bandwidth * opts.UtilizationCap
			eff.Paths[i].RandDelay = nil // load model works on fixed delays
		}
		var err error
		sol, err = SolveQuality(&eff)
		if err != nil {
			return nil, nil, err
		}
		if allZero {
			return sol, loads(n, models, util), nil
		}

		maxDelta := 0.0
		rates = sol.SentRates(rates)
		for i, p := range n.Paths {
			newU := rates[i] / p.Bandwidth
			if newU > 1 {
				newU = 1
			}
			blended := (1-damping)*util[i] + damping*newU
			if d := math.Abs(blended - util[i]); d > maxDelta {
				maxDelta = d
			}
			util[i] = blended
		}
		if maxDelta < opts.Tolerance {
			return sol, loads(n, models, util), nil
		}
		// The LP's response to load is piecewise constant (combinations
		// flip feasibility at delay thresholds), so fixed points can sit
		// exactly on a discontinuity where undamped iteration cycles.
		// When progress stalls, shrink the step to settle onto the
		// threshold operating point.
		if maxDelta >= prevDelta {
			damping *= 0.7
		}
		prevDelta = maxDelta
	}
	return nil, nil, fmt.Errorf("core: after %d iterations: %w", opts.MaxIterations, ErrLoadAwareDiverged)
}

// loads reports the operating point at the final utilizations; effective
// characteristics are recomputed from util so the report is always
// self-consistent (the last solved network used the pre-blend values).
func loads(n *Network, models []LoadModel, util []float64) []PathLoad {
	out := make([]PathLoad, len(n.Paths))
	for i := range out {
		d, l := models[i].apply(n.Paths[i], util[i])
		out[i] = PathLoad{
			Utilization:    util[i],
			EffectiveDelay: d,
			EffectiveLoss:  l,
		}
	}
	return out
}
