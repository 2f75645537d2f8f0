package core

import (
	"errors"
	"fmt"
)

// ErrRandomNeedsTwoTransmissions is returned by SolveQualityRandom for
// m ≠ 2: the paper's random-delay extension (Eqs. 27–30) is formulated for
// one retransmission, and the timeout table t_{i,j} is pairwise.
var ErrRandomNeedsTwoTransmissions = errors.New("core: random-delay model requires Transmissions == 2")

// SolveQualityRandom solves the §VI-B random-delay model: path delays
// are distributions (Path.RandDelay, falling back to a point mass at
// Path.Delay), retransmissions fire at the given timeouts, and the LP
// coefficients follow Eqs. 27–30:
//
//	P(retransᵢⱼ) = 1 − P(dᵢ + d_min ≤ t_{i,j})·(1−τᵢ)                 (27)
//	p_l = P(dᵢ ≤ δ)(1−τᵢ) + P(retransᵢⱼ)·P(t_{i,j}+dⱼ ≤ δ)(1−τⱼ)      (28)
//
// with bandwidth (29) and cost (30) rows using P(retransᵢⱼ) in place of
// τᵢ. Combinations whose first attempt is the blackhole deliver nothing
// and are never retransmitted; combinations with an undefined timeout
// cannot retransmit in time (their delivery reduces to the first attempt).
//
// Dispatch and storage ownership follow SolveQuality; both dispatches
// evaluate the same tabulated Eq. 27–30 pair columns.
func SolveQualityRandom(n *Network, to *Timeouts) (*Solution, error) {
	return solve(n, resolveReq{obj: objRandom, to: to}, nil, false)
}

// validateTimeouts checks the timeout table matches the network's path
// count.
func validateTimeouts(n *Network, to *Timeouts) error {
	toSize := 0
	if to != nil {
		toSize = len(to.T)
	}
	if toSize != len(n.Paths) {
		return fmt.Errorf("core: timeout table size %d, want %d", toSize, len(n.Paths))
	}
	return nil
}
