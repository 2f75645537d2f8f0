package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// riskMoments returns the per-packet first and second moments of the
// transmissions the solution places on each real path, into mean and
// second (one entry per path), and of the cost per bit it incurs. It
// reads each column's attempts off the solution's own tables: attempt k
// on path iₖ fires with the column's attempt mass wₖ, the probability
// its LP rows charge. Each sum runs column by column, in column order.
func (s *Solution) riskMoments(mean, second []float64) (costMean, costSecond float64) {
	for l, x := range s.X {
		if x <= 0 {
			continue
		}
		digits, weights := s.cols.attempts(l)
		for k, i := range digits {
			if i == 0 || slices.Contains(digits[:k], i) {
				continue // the blackhole, or a path already counted
			}
			mu, m2 := pathUsageMoments(digits[k:], weights[k:], i)
			mean[i-1] += x * mu
			second[i-1] += x * m2
		}
		mu, m2 := s.m.costMoments(digits, weights)
		costMean += x * mu
		costSecond += x * m2
	}
	return costMean, costSecond
}

// pathUsageMoments returns the per-packet mean and second moment of the
// number of transmissions a column's attempts place on model path i.
// The attempt indicators are nested (a later attempt implies all
// earlier ones), so E[X_r·X_s] = P(attempt max(r,s)) = w_max(r,s).
func pathUsageMoments(digits []int, weights []float64, path int) (mean, second float64) {
	for r, i := range digits {
		if i == path {
			mean += weights[r]
		}
	}
	second = mean
	for a, i := range digits {
		if i != path {
			continue
		}
		for b := a + 1; b < len(digits); b++ {
			if digits[b] == path {
				second += 2 * weights[b]
			}
		}
	}
	return mean, second
}

// costMoments returns the per-packet mean and second moment of the cost
// (per bit) a column's attempts incur.
func (m *model) costMoments(digits []int, weights []float64) (mean, second float64) {
	// cost = Σ_r c_r·X_r with nested indicators:
	// E[(Σ c_r X_r)²] = Σ c_r² w_r + 2 Σ_{r<s} c_r c_s w_s.
	for r, i := range digits {
		cr := m.paths[i].Cost
		mean += cr * weights[r]
		second += cr * cr * weights[r]
		for s := r + 1; s < len(digits); s++ {
			second += 2 * cr * m.paths[digits[s]].Cost * weights[s]
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
// (CLT) approximation over λ/(8·packetBytes) packets per second. A
// transmission attempt fires with the probability the solution's LP
// charges it: the loss of the earlier attempts under deterministic
// delays, and Eq. 27's P(retransᵢⱼ) under the §VI-B random-delay model.
func (s *Solution) RiskReport(packetBytes int) (*RiskReport, error) {
	if packetBytes <= 0 {
		return nil, fmt.Errorf("core: packet size %d must be positive", packetBytes)
	}
	bitsPerPacket := float64(packetBytes) * 8
	pps := s.Network.Rate / bitsPerPacket
	if pps < 1 {
		return nil, fmt.Errorf("core: rate %v yields under one packet/s for %d-byte packets", s.Network.Rate, packetBytes)
	}
	// exceeds is the Gaussian P(realized total per second > limit) of a
	// quantity with the given per-packet, per-bit moments.
	exceeds := func(mean, second, limit float64) float64 {
		return gaussianExceedance(
			pps*mean*bitsPerPacket,
			pps*(second-mean*mean)*bitsPerPacket*bitsPerPacket,
			limit,
		)
	}

	n := len(s.Network.Paths)
	moments := make([]float64, 2*n)
	mean, second := moments[:n], moments[n:]
	costMean, costSecond := s.riskMoments(mean, second)
	rep := &RiskReport{
		Bandwidth:        make([]float64, n),
		PacketsPerSecond: pps,
	}
	for i, p := range s.Network.Paths {
		rep.Bandwidth[i] = exceeds(mean[i], second[i], p.Bandwidth)
	}
	if !math.IsInf(s.Network.CostBound, 1) {
		rep.Cost = exceeds(costMean, costSecond, s.Network.CostBound)
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
