package core

import (
	"errors"
	"fmt"
	"math"
)

// RiskReport holds the §IX-C exceedance probabilities of a solution: the
// model constrains expected usage, but realized per-second usage
// fluctuates with per-packet combination draws and losses, so an
// expectation-tight solution exceeds its caps roughly half the time.
type RiskReport struct {
	// Bandwidth[i] is P(realized bit rate on path i > bᵢ) over one
	// second of traffic.
	Bandwidth []float64
	// Cost is P(realized cost per second > µ); zero when the budget is
	// unlimited.
	Cost float64
	// PacketsPerSecond is the workload the probabilities assume.
	PacketsPerSecond float64
}

// Max returns the largest exceedance probability in the report.
func (r *RiskReport) Max() float64 {
	max := r.Cost
	for _, p := range r.Bandwidth {
		if p > max {
			max = p
		}
	}
	return max
}

// attemptProbs returns, for combination c, the probability that each
// transmission attempt occurs (attempt k fires iff every earlier attempt
// was lost; nothing fires after a blackhole).
func (m *model) attemptProbs(c Combo) []float64 {
	probs := make([]float64, len(c))
	surv := 1.0
	for k, i := range c {
		probs[k] = surv
		if m.isBlackhole(i) {
			surv = 0
		} else {
			surv *= m.paths[i].Loss
		}
	}
	return probs
}

// pathUsageMoments returns the per-packet mean and second moment of the
// number of transmissions combination c places on model path i. The
// attempt indicators are nested (a later attempt implies all earlier
// ones), so E[X_r·X_s] = P(attempt max(r,s)).
func (m *model) pathUsageMoments(c Combo, probs []float64, path int) (mean, second float64) {
	var positions []int
	for k, i := range c {
		if i == path {
			positions = append(positions, k)
		}
	}
	for _, r := range positions {
		mean += probs[r]
		second += probs[r]
	}
	for a := 0; a < len(positions); a++ {
		for b := a + 1; b < len(positions); b++ {
			second += 2 * probs[positions[b]]
		}
	}
	return mean, second
}

// costMoments returns the per-packet mean and second moment of the cost
// (per bit) combination c incurs.
func (m *model) costMoments(c Combo, probs []float64) (mean, second float64) {
	// cost = Σ_r c_r·X_r with nested indicators:
	// E[(Σ c_r X_r)²] = Σ c_r² q_r + 2 Σ_{r<s} c_r c_s q_s.
	for r, i := range c {
		cr := m.paths[i].Cost
		mean += cr * probs[r]
		second += cr * cr * probs[r]
		for s := r + 1; s < len(c); s++ {
			second += 2 * cr * m.paths[c[s]].Cost * probs[s]
		}
	}
	return mean, second
}

// RiskReport computes the exceedance probabilities of the solution for a
// workload of fixed-size packets (the paper's 1024-byte messages by
// default in the protocol layer). Per-packet combination choices are
// treated as independent draws from X — the weighted-random scheduling
// model; the deterministic Algorithm 1 selector has strictly lower
// variance, so these probabilities are conservative for it. Gaussian
// (CLT) approximation over λ/(8·packetBytes) packets per second.
func (s *Solution) RiskReport(packetBytes int) (*RiskReport, error) {
	if packetBytes <= 0 {
		return nil, fmt.Errorf("core: packet size %d must be positive", packetBytes)
	}
	m := s.m
	bitsPerPacket := float64(packetBytes) * 8
	pps := s.Network.Rate / bitsPerPacket
	if pps < 1 {
		return nil, fmt.Errorf("core: rate %v yields under one packet/s for %d-byte packets", s.Network.Rate, packetBytes)
	}

	// Size by the solution's own column tables, not m.nVars:
	// column-generated solutions carry a subset of the dense space (and
	// sparse models have no dense count at all).
	probs := make([][]float64, s.cols.len())
	for l := range probs {
		probs[l] = m.attemptProbs(s.cols.combo(l))
	}

	rep := &RiskReport{
		Bandwidth:        make([]float64, len(s.Network.Paths)),
		PacketsPerSecond: pps,
	}
	for i := range s.Network.Paths {
		var mean, second float64
		for l, x := range s.X {
			if x <= 0 {
				continue
			}
			mu, m2 := m.pathUsageMoments(s.cols.combo(l), probs[l], i+1)
			mean += x * mu
			second += x * m2
		}
		variance := second - mean*mean
		rep.Bandwidth[i] = gaussianExceedance(
			pps*mean*bitsPerPacket,
			pps*variance*bitsPerPacket*bitsPerPacket,
			s.Network.Paths[i].Bandwidth,
		)
	}
	if !math.IsInf(s.Network.CostBound, 1) {
		var mean, second float64
		for l, x := range s.X {
			if x <= 0 {
				continue
			}
			mu, m2 := m.costMoments(s.cols.combo(l), probs[l])
			mean += x * mu
			second += x * m2
		}
		variance := second - mean*mean
		rep.Cost = gaussianExceedance(
			pps*mean*bitsPerPacket,
			pps*variance*bitsPerPacket*bitsPerPacket,
			s.Network.CostBound,
		)
	}
	return rep, nil
}

// gaussianExceedance returns P(N(mean, variance) > limit), with the
// degenerate zero-variance case resolved by comparison.
func gaussianExceedance(mean, variance, limit float64) float64 {
	if math.IsInf(limit, 1) {
		return 0
	}
	if variance <= 0 {
		if mean > limit {
			return 1
		}
		return 0
	}
	z := (limit - mean) / math.Sqrt(variance)
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// RiskOptions tunes SolveQualityRiskAdjusted.
type RiskOptions struct {
	// PacketBytes sizes the packetized workload; zero means 1024 (the
	// paper's message size).
	PacketBytes int
	// Epsilon is the acceptable exceedance probability per constraint;
	// zero means 0.01.
	Epsilon float64
	// Shrink is the multiplicative cap reduction per round in (0, 1);
	// zero means 0.98.
	Shrink float64
	// MaxRounds bounds the adjust/re-solve loop; zero means 200.
	MaxRounds int
}

func (o RiskOptions) withDefaults() RiskOptions {
	if o.PacketBytes <= 0 {
		o.PacketBytes = 1024
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.01
	}
	if o.Shrink <= 0 || o.Shrink >= 1 {
		o.Shrink = 0.98
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 200
	}
	return o
}

// ErrRiskUnattainable reports that no cap shrinkage achieved the
// requested exceedance bound within the round budget.
var ErrRiskUnattainable = errors.New("core: risk adjustment did not reach epsilon")

// SolveQualityRiskAdjusted implements §IX-C: "the system can adjust the
// bandwidth limit or cost limit and re-solve the linear program". It
// repeatedly shrinks the caps of violated constraints (the q vector of
// Eq. 17) and re-solves, until the realized-usage exceedance probability
// of every bandwidth row and the cost row is at most Epsilon under the
// packetized-traffic model of (*Solution).RiskReport.
func SolveQualityRiskAdjusted(n *Network, opts RiskOptions) (*Solution, *RiskReport, error) {
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()

	work := *n
	work.Paths = append([]Path(nil), n.Paths...)
	for round := 0; round < opts.MaxRounds; round++ {
		sol, err := SolveQuality(&work)
		if err != nil {
			return nil, nil, err
		}
		// Evaluate risk against the ORIGINAL caps: shrunken planning caps
		// are the mechanism, the true physical limits stay fixed.
		eval := *sol
		eval.Network = n
		rep, err := eval.RiskReport(opts.PacketBytes)
		if err != nil {
			return nil, nil, err
		}
		ok := true
		for i, p := range rep.Bandwidth {
			if p > opts.Epsilon {
				ok = false
				work.Paths[i].Bandwidth *= opts.Shrink
			}
		}
		if rep.Cost > opts.Epsilon {
			ok = false
			work.CostBound *= opts.Shrink
		}
		if ok {
			return sol, rep, nil
		}
	}
	return nil, nil, fmt.Errorf("core: after %d rounds: %w", opts.MaxRounds, ErrRiskUnattainable)
}
