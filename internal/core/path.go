// Package core implements the paper's primary contribution: the linear
// optimization model for deadline-aware multipath communication.
//
// A Network describes end-to-end paths (Table I), an application data rate
// λ, a data lifetime δ, and a cost budget µ. SolveQuality builds the linear
// program of §V (objective Eq. 12, bandwidth constraints Eqs. 14–15, cost
// constraint Eq. 16, conservation Eq. 18, blackhole path Eq. 19) —
// generalized from 2 transmissions to any m ≥ 1 — and maximizes the
// communication quality Q = G/λ. SolveMinCost solves the §VI-A dual
// objective (minimum cost subject to a quality floor); SolveQualityRandom
// implements the §VI-B random-delay extension with retransmission timeouts
// optimized per Eq. 26/34.
//
// Path-combination indexing follows the paper: index 0 is the virtual
// blackhole path, user path k is index k+1, and a combination l unpacks to
// per-transmission path digits little-endian (Eq. 13).
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dmc/internal/dist"
)

// Mbps is a convenience unit: 1 Mbps in bits per second.
const Mbps = 1e6

// Kbps is a convenience unit: 1 kbps in bits per second.
const Kbps = 1e3

// Gbps is a convenience unit: 1 Gbps in bits per second.
const Gbps = 1e9

// MaxTransmissions caps the per-packet transmission count m. The variable
// count grows as (n+1)^m; the paper (§V, §VIII-B) envisions m ≤ 3 in
// practice.
const MaxTransmissions = 6

// Path is one end-to-end network path with the Table I characteristics.
type Path struct {
	// Name optionally labels the path in reports.
	Name string
	// Bandwidth is bᵢ in bits per second.
	Bandwidth float64
	// Delay is the deterministic one-way delay dᵢ.
	Delay time.Duration
	// Loss is the bit/packet erasure probability τᵢ in [0, 1].
	Loss float64
	// Cost is cᵢ, the cost of sending one bit along the path.
	Cost float64
	// RandDelay, when non-nil, replaces Delay with a distribution Dᵢ for
	// the §VI-B random-delay model (used by SolveQualityRandom and
	// OptimalTimeouts; the deterministic solvers ignore it).
	RandDelay dist.Delay
}

func (p Path) validate(idx int) error {
	if !(p.Bandwidth > 0) {
		return fmt.Errorf("core: path %d (%s): bandwidth %v must be positive", idx, p.Name, p.Bandwidth)
	}
	if p.Loss < 0 || p.Loss > 1 || math.IsNaN(p.Loss) {
		return fmt.Errorf("core: path %d (%s): loss %v outside [0,1]", idx, p.Name, p.Loss)
	}
	if p.Delay < 0 {
		return fmt.Errorf("core: path %d (%s): negative delay %v", idx, p.Name, p.Delay)
	}
	if p.Cost < 0 || math.IsNaN(p.Cost) || math.IsInf(p.Cost, 0) {
		return fmt.Errorf("core: path %d (%s): invalid cost %v", idx, p.Name, p.Cost)
	}
	return nil
}

// delayDist returns the path's delay distribution: RandDelay if set,
// otherwise the deterministic point mass at Delay.
func (p Path) delayDist() dist.Delay {
	if p.RandDelay != nil {
		return p.RandDelay
	}
	return dist.Deterministic{D: p.Delay}
}

// meanDelay returns E[dᵢ] under the effective delay model.
func (p Path) meanDelay() time.Duration {
	if p.RandDelay != nil {
		return p.RandDelay.Mean()
	}
	return p.Delay
}

// Network is a deadline-aware multipath scenario: the paths plus the
// application parameters of Table I.
type Network struct {
	// Paths are the real (non-blackhole) paths, at least one.
	Paths []Path
	// Rate is the application data rate λ in bits per second.
	Rate float64
	// Lifetime is the data lifetime δ: data not delivered within Lifetime
	// of generation is useless.
	Lifetime time.Duration
	// CostBound is µ, the maximum total cost per second. Use
	// math.Inf(1) (or call WithUnlimitedCost) when cost is not limited.
	CostBound float64
	// Transmissions is m, the total number of transmission attempts per
	// data unit (1 = never retransmit; the paper's base model is 2).
	// Zero defaults to 2.
	Transmissions int
}

// NewNetwork returns a Network with rate λ (bits/s), lifetime δ, the given
// paths, an unlimited cost budget, and the paper's default of 2
// transmissions.
func NewNetwork(rate float64, lifetime time.Duration, paths ...Path) *Network {
	return &Network{
		Paths:         paths,
		Rate:          rate,
		Lifetime:      lifetime,
		CostBound:     math.Inf(1),
		Transmissions: 2,
	}
}

// Validate checks the network parameters.
func (n *Network) Validate() error {
	if len(n.Paths) == 0 {
		return errors.New("core: network has no paths")
	}
	if !(n.Rate > 0) || math.IsInf(n.Rate, 0) {
		return fmt.Errorf("core: rate %v must be positive and finite", n.Rate)
	}
	if n.Lifetime <= 0 {
		return fmt.Errorf("core: lifetime %v must be positive", n.Lifetime)
	}
	if math.IsNaN(n.CostBound) || n.CostBound < 0 {
		return fmt.Errorf("core: cost bound %v must be ≥ 0 (use +Inf for unlimited)", n.CostBound)
	}
	m := n.transmissions()
	if m < 1 || m > MaxTransmissions {
		return fmt.Errorf("core: transmissions %d outside [1, %d]", m, MaxTransmissions)
	}
	for i, p := range n.Paths {
		if err := p.validate(i); err != nil {
			return err
		}
	}
	return nil
}

func (n *Network) transmissions() int {
	if n.Transmissions == 0 {
		return 2
	}
	return n.Transmissions
}

// MinDelay returns d_min (Eq. 1): the smallest mean one-way delay across
// real paths — under random delays this is the expectation, matching
// Eq. 25's choice of acknowledgment path.
func (n *Network) MinDelay() time.Duration {
	min := n.Paths[0].meanDelay()
	for _, p := range n.Paths[1:] {
		if d := p.meanDelay(); d < min {
			min = d
		}
	}
	return min
}

// AckPathIndex returns the index (into Paths) of the acknowledgment path:
// the one with the smallest mean delay (Eq. 25). Ties break to the lower
// index.
func (n *Network) AckPathIndex() int {
	best := 0
	bestD := n.Paths[0].meanDelay()
	for i, p := range n.Paths[1:] {
		if d := p.meanDelay(); d < bestD {
			bestD = d
			best = i + 1
		}
	}
	return best
}

// SinglePath returns a copy of the network restricted to path i only —
// the single-path baselines of Figure 2.
func (n *Network) SinglePath(i int) *Network {
	cp := *n
	cp.Paths = []Path{n.Paths[i]}
	return &cp
}

// Combo is a path combination: Combo[k] is the model path index used for
// the (k+1)-th transmission attempt. Index 0 is the blackhole; index k ≥ 1
// is Network.Paths[k-1].
type Combo []int

// String renders the combination in the paper's x notation, e.g. "x1,2".
func (c Combo) String() string {
	s := "x"
	for k, i := range c {
		if k > 0 {
			s += ","
		}
		s += fmt.Sprint(i)
	}
	return s
}

// Equal reports whether two combinations are identical.
func (c Combo) Equal(other Combo) bool {
	if len(c) != len(other) {
		return false
	}
	for i := range c {
		if c[i] != other[i] {
			return false
		}
	}
	return true
}

// model is the normalized optimization instance: user paths prefixed by
// the virtual blackhole (Eq. 19) at index 0, with the combination space
// enumerated (dense) or addressed on demand (sparse, column generation).
type model struct {
	net   *Network
	paths []Path // paths[0] is the blackhole
	m     int    // transmissions
	base  int    // len(paths)
	dmin  time.Duration
	nVars int // base^m for dense models; 0 when sparse (column generation)
}

// blackholePath is the Eq. 19 virtual path. Its bandwidth is unlimited:
// the paper states b₀ = λ, but its own Table IV solutions (x₀,₀ = 7/9)
// would violate that bound under Eq. 2 — see DESIGN.md erratum #1.
func blackholePath() Path {
	return Path{
		Name:      "blackhole",
		Bandwidth: math.Inf(1),
		Delay:     time.Duration(math.MaxInt64),
		Loss:      1,
		Cost:      0,
	}
}

// DenseLimit is the hard cap on materialized LP columns: dense-only
// entry points (BuildLP and QualityUpperBound) refuse instances whose
// combination count (n+1)^m exceeds it. Every solve entry point —
// SolveQuality, SolveMinCost, SolveQualityRandom — dispatches to column
// generation above its dense threshold instead of failing, so the cap
// is unreachable from them.
const DenseLimit = 1 << 22

// combinationCount returns base^m when it is at most limit. The product
// is checked term by term — it bails out as soon as it would exceed
// limit — so extreme inputs (e.g. thousands of paths at m = 6, where
// base^m overflows int64) report ok = false instead of wrapping around
// the guard.
func combinationCount(base, m, limit int) (count int, ok bool) {
	if base <= 0 || limit <= 0 {
		return 0, false
	}
	count = 1
	for i := 0; i < m; i++ {
		if count > limit/base {
			return 0, false
		}
		count *= base
	}
	return count, true
}

func newModel(n *Network) (*model, error) {
	m, err := newSparseModel(n)
	if err != nil {
		return nil, err
	}
	nVars, ok := combinationCount(m.base, m.m, DenseLimit)
	if !ok {
		return nil, fmt.Errorf("core: %d paths with %d transmissions yields more than %d path combinations, beyond dense enumeration; the solve entry points (SolveQuality, SolveMinCost, SolveQualityRandom) handle such instances by column generation",
			len(n.Paths), m.m, DenseLimit)
	}
	m.nVars = nVars
	return m, nil
}

// newSparseModel builds a model without materializing (or bounding) the
// combination space: combinations are addressed by packed keys instead
// of dense indices. Used by the column-generation solve path.
func newSparseModel(n *Network) (*model, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	m := &model{
		net:   n,
		paths: append([]Path{blackholePath()}, n.Paths...),
		m:     n.transmissions(),
		dmin:  n.MinDelay(),
	}
	m.base = len(m.paths)
	// Packed combination keys must be unique within a uint64; with
	// m ≤ MaxTransmissions = 6 this allows ~1600 paths per model — far
	// beyond any realistic multipath scenario.
	if !keysFit(m.base, m.m) {
		return nil, fmt.Errorf("core: %d paths with %d transmissions exceeds the addressable combination space", len(n.Paths), m.m)
	}
	return m, nil
}

// keysFit reports whether base^m fits in a uint64, i.e. whether packed
// combination keys are collision-free for this model shape.
func keysFit(base, m int) bool {
	key := uint64(1)
	for i := 0; i < m; i++ {
		if key > math.MaxUint64/uint64(base) {
			return false
		}
		key *= uint64(base)
	}
	return true
}

// packKey packs a combination into its unique uint64 key (the Eq. 13
// index computed in uint64, valid whenever keysFit holds).
func (m *model) packKey(c []int) uint64 {
	var key uint64
	for k := len(c) - 1; k >= 0; k-- {
		key = key*uint64(m.base) + uint64(c[k])
	}
	return key
}

// combo unpacks variable index l into its per-transmission path digits
// (little-endian, Eq. 13 generalized).
func (m *model) combo(l int) Combo {
	c := make(Combo, m.m)
	for k := 0; k < m.m; k++ {
		c[k] = l % m.base
		l /= m.base
	}
	return c
}

// index packs a combination back into its variable index.
func (m *model) index(c Combo) int {
	l := 0
	for k := m.m - 1; k >= 0; k-- {
		l = l*m.base + c[k]
	}
	return l
}

// isBlackhole reports whether model path index i is the virtual path.
func (m *model) isBlackhole(i int) bool { return i == 0 }

// attemptSchedule returns, for combination c, each attempt's send time
// (Eq. 4 generalized: attempt k goes out after the retransmission timeouts
// t = dᵢ + d_min of all earlier attempts) and whether it meets the
// deadline. An earlier blackhole attempt never times out, so everything
// after it is unreachable.
func (m *model) attemptSchedule(c Combo) (sendAt []time.Duration, inTime []bool) {
	sendAt = make([]time.Duration, len(c))
	inTime = make([]bool, len(c))
	var t time.Duration
	reachable := true
	for k, i := range c {
		sendAt[k] = t
		p := m.paths[i]
		if reachable && !m.isBlackhole(i) {
			arrival := t + p.Delay
			inTime[k] = arrival >= 0 && arrival <= m.net.Lifetime // guard overflow
		}
		if m.isBlackhole(i) {
			reachable = false
			t = time.Duration(math.MaxInt64)
		} else if reachable {
			next := t + p.Delay + m.dmin
			if next < t { // overflow
				next = time.Duration(math.MaxInt64)
			}
			t = next
		}
	}
	return sendAt, inTime
}

// deliveryProb returns p_l (Eq. 12 generalized): the probability that
// combination c delivers its data before the deadline, Σ_k [attempt k in
// time]·(1−τ_k)·Π_{r<k} τ_r.
func (m *model) deliveryProb(c Combo) float64 {
	_, inTime := m.attemptSchedule(c)
	var p, surv float64
	surv = 1
	for k, i := range c {
		path := m.paths[i]
		if inTime[k] {
			p += surv * (1 - path.Loss)
		}
		surv *= path.Loss
		if surv == 0 {
			break
		}
	}
	return p
}

// The send-share (Eq. 15) and cost (Eq. 16) column coefficients are
// computed alongside delivery probability in the fused single pass of
// computeColumns (columns.go); deliveryProb/attemptSchedule above remain
// for QualityUpperBound and per-combination inspection.
