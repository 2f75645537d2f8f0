package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"
	"time"

	"dmc/internal/lp"
	"dmc/internal/ratlp"
)

// ExactPath is a Path with exact rational characteristics, for
// reproducing the paper's CGAL-computed solutions (Table IV's 5/8, 15/16,
// 20/27, …) bit-for-bit.
type ExactPath struct {
	Name string
	// Bandwidth is bᵢ in bits/s; nil means unlimited.
	Bandwidth *big.Rat
	// Delay is the deterministic one-way delay (exact, in nanoseconds).
	Delay time.Duration
	// Loss is τᵢ as an exact rational in [0, 1].
	Loss *big.Rat
	// Cost is cᵢ per bit; nil means zero.
	Cost *big.Rat
}

// ExactNetwork mirrors Network over exact rationals.
type ExactNetwork struct {
	Paths    []ExactPath
	Rate     *big.Rat // λ in bits/s
	Lifetime time.Duration
	// CostBound is µ; nil means unlimited.
	CostBound *big.Rat
	// Transmissions is m; zero defaults to 2.
	Transmissions int
}

// ExactFromFloat converts a float Network into an exact one. Each float64
// is represented exactly as a rational; note that a decimal like 0.2 is
// not the float 0.2, so build ExactNetwork directly with big.Rat values
// when decimal exactness matters (as the Table IV reproduction does).
func ExactFromFloat(n *Network) (*ExactNetwork, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	en := &ExactNetwork{
		Rate:          new(big.Rat).SetFloat64(n.Rate),
		Lifetime:      n.Lifetime,
		Transmissions: n.transmissions(),
	}
	if !math.IsInf(n.CostBound, 1) {
		en.CostBound = new(big.Rat).SetFloat64(n.CostBound)
	}
	for _, p := range n.Paths {
		en.Paths = append(en.Paths, ExactPath{
			Name:      p.Name,
			Bandwidth: new(big.Rat).SetFloat64(p.Bandwidth),
			Delay:     p.Delay,
			Loss:      new(big.Rat).SetFloat64(p.Loss),
			Cost:      new(big.Rat).SetFloat64(p.Cost),
		})
	}
	return en, nil
}

// Validate checks the exact network parameters.
func (n *ExactNetwork) Validate() error {
	if len(n.Paths) == 0 {
		return errors.New("core: exact network has no paths")
	}
	zero := new(big.Rat)
	one := big.NewRat(1, 1)
	if n.Rate == nil || n.Rate.Cmp(zero) <= 0 {
		return fmt.Errorf("core: exact rate %v must be positive", n.Rate)
	}
	if n.Lifetime <= 0 {
		return fmt.Errorf("core: exact lifetime %v must be positive", n.Lifetime)
	}
	if n.CostBound != nil && n.CostBound.Cmp(zero) < 0 {
		return fmt.Errorf("core: exact cost bound %v negative", n.CostBound)
	}
	m := n.transmissions()
	if m < 1 || m > MaxTransmissions {
		return fmt.Errorf("core: transmissions %d outside [1, %d]", m, MaxTransmissions)
	}
	for i, p := range n.Paths {
		if p.Bandwidth != nil && p.Bandwidth.Cmp(zero) <= 0 {
			return fmt.Errorf("core: exact path %d bandwidth must be positive or nil", i)
		}
		if p.Loss == nil || p.Loss.Cmp(zero) < 0 || p.Loss.Cmp(one) > 0 {
			return fmt.Errorf("core: exact path %d loss outside [0,1]", i)
		}
		if p.Delay < 0 {
			return fmt.Errorf("core: exact path %d negative delay", i)
		}
		if p.Cost != nil && p.Cost.Cmp(zero) < 0 {
			return fmt.Errorf("core: exact path %d negative cost", i)
		}
	}
	return nil
}

func (n *ExactNetwork) transmissions() int {
	if n.Transmissions == 0 {
		return 2
	}
	return n.Transmissions
}

// minDelay returns d_min over real paths.
func (n *ExactNetwork) minDelay() time.Duration {
	min := n.Paths[0].Delay
	for _, p := range n.Paths[1:] {
		if p.Delay < min {
			min = p.Delay
		}
	}
	return min
}

// exactModel mirrors model over rationals; path 0 is the blackhole
// (unlimited bandwidth, loss 1, cost 0, infinite delay).
type exactModel struct {
	net   *ExactNetwork
	loss  []*big.Rat // per model path
	cost  []*big.Rat
	bw    []*big.Rat // nil = unlimited
	delay []time.Duration
	m     int
	base  int
	dmin  time.Duration
	nVars int
}

func newExactModel(n *ExactNetwork) (*exactModel, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	em := &exactModel{
		net:   n,
		m:     n.transmissions(),
		dmin:  n.minDelay(),
		loss:  []*big.Rat{big.NewRat(1, 1)},
		cost:  []*big.Rat{new(big.Rat)},
		bw:    []*big.Rat{nil},
		delay: []time.Duration{time.Duration(math.MaxInt64)},
	}
	for _, p := range n.Paths {
		em.loss = append(em.loss, p.Loss)
		if p.Cost != nil {
			em.cost = append(em.cost, p.Cost)
		} else {
			em.cost = append(em.cost, new(big.Rat))
		}
		em.bw = append(em.bw, p.Bandwidth)
		em.delay = append(em.delay, p.Delay)
	}
	em.base = len(em.loss)
	em.nVars = 1
	for i := 0; i < em.m; i++ {
		em.nVars *= em.base
	}
	if em.nVars > 1<<18 {
		return nil, fmt.Errorf("core: exact model with %d variables too large", em.nVars)
	}
	return em, nil
}

func (em *exactModel) combo(l int) Combo {
	c := make(Combo, em.m)
	for k := 0; k < em.m; k++ {
		c[k] = l % em.base
		l /= em.base
	}
	return c
}

func (em *exactModel) index(c Combo) int {
	l := 0
	for k := em.m - 1; k >= 0; k-- {
		l = l*em.base + c[k]
	}
	return l
}

// inTime reports which attempts of c meet the deadline (same schedule rule
// as the float model).
func (em *exactModel) inTime(c Combo) []bool {
	out := make([]bool, len(c))
	var t time.Duration
	reachable := true
	for k, i := range c {
		if i == 0 {
			reachable = false
			continue
		}
		if reachable {
			arrival := t + em.delay[i]
			out[k] = arrival >= 0 && arrival <= em.net.Lifetime
			next := t + em.delay[i] + em.dmin
			if next < t {
				next = time.Duration(math.MaxInt64)
			}
			t = next
		}
	}
	return out
}

// deliveryProb returns the exact p_l.
func (em *exactModel) deliveryProb(c Combo) *big.Rat {
	inTime := em.inTime(c)
	p := new(big.Rat)
	surv := big.NewRat(1, 1)
	one := big.NewRat(1, 1)
	for k, i := range c {
		if inTime[k] {
			succ := new(big.Rat).Sub(one, em.loss[i])
			p.Add(p, succ.Mul(succ, surv))
		}
		surv = new(big.Rat).Mul(surv, em.loss[i])
	}
	return p
}

// sendShare returns per-model-path expected bits per application bit.
func (em *exactModel) sendShare(c Combo) []*big.Rat {
	share := make([]*big.Rat, em.base)
	for i := range share {
		share[i] = new(big.Rat)
	}
	surv := big.NewRat(1, 1)
	for _, i := range c {
		share[i].Add(share[i], surv)
		if i == 0 {
			break
		}
		surv = new(big.Rat).Mul(surv, em.loss[i])
	}
	return share
}

func (em *exactModel) comboCost(c Combo) *big.Rat {
	cost := new(big.Rat)
	surv := big.NewRat(1, 1)
	for _, i := range c {
		term := new(big.Rat).Mul(surv, em.cost[i])
		cost.Add(cost, term)
		if i == 0 {
			break
		}
		surv = new(big.Rat).Mul(surv, em.loss[i])
	}
	return cost
}

// ExactSolution is the exact analogue of Solution.
type ExactSolution struct {
	Network *ExactNetwork
	// X is the exact optimal traffic split over combination indices.
	X []*big.Rat
	// Quality is the exact optimal Q (for SolveMinCostExact, the exact
	// quality the minimum-cost strategy achieves).
	Quality *big.Rat
	// Cost is the exact expected total cost per second; set by
	// SolveMinCostExact (nil on quality solves).
	Cost *big.Rat

	em *exactModel
}

// SolveQualityExact solves the quality maximization with exact rational
// arithmetic, reproducing the paper's CGAL results.
func SolveQualityExact(n *ExactNetwork) (*ExactSolution, error) {
	em, err := newExactModel(n)
	if err != nil {
		return nil, err
	}
	obj := make([]*big.Rat, em.nVars)
	shares := make([][]*big.Rat, em.nVars)
	costs := make([]*big.Rat, em.nVars)
	for l := 0; l < em.nVars; l++ {
		c := em.combo(l)
		obj[l] = em.deliveryProb(c)
		shares[l] = em.sendShare(c)
		costs[l] = em.comboCost(c)
	}

	prob := ratlp.NewProblem(lp.Maximize, obj)
	for i := 1; i < em.base; i++ {
		row := make([]*big.Rat, em.nVars)
		for l := 0; l < em.nVars; l++ {
			row[l] = new(big.Rat).Mul(em.net.Rate, shares[l][i])
		}
		prob.AddConstraint(row, lp.LE, em.bw[i]) // nil bandwidth = vacuous
	}
	if em.net.CostBound != nil {
		row := make([]*big.Rat, em.nVars)
		for l := 0; l < em.nVars; l++ {
			row[l] = new(big.Rat).Mul(em.net.Rate, costs[l])
		}
		prob.AddConstraint(row, lp.LE, em.net.CostBound)
	}
	ones := make([]*big.Rat, em.nVars)
	for l := range ones {
		ones[l] = big.NewRat(1, 1)
	}
	prob.AddConstraint(ones, lp.EQ, big.NewRat(1, 1))

	sol, err := ratlp.Solve(prob)
	if err != nil {
		return nil, fmt.Errorf("core: solving exact quality LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: exact quality LP unexpectedly %v", sol.Status)
	}
	return &ExactSolution{Network: n, X: sol.X, Quality: sol.Objective, em: em}, nil
}

// SolveMinCostExact solves the §VI-A cost minimization with exact
// rational arithmetic: minimize the expected total cost per second
// subject to the bandwidth rows, the conservation row, and the quality
// floor p·x ≥ minQuality. The differential reference for the float
// min-cost solve paths (dense and column generation). Returns
// ErrInfeasible wrapped in an error when the floor is unattainable.
func SolveMinCostExact(n *ExactNetwork, minQuality *big.Rat) (*ExactSolution, error) {
	if minQuality == nil || minQuality.Sign() < 0 || minQuality.Cmp(big.NewRat(1, 1)) > 0 {
		return nil, fmt.Errorf("core: exact min quality %v outside [0,1]", minQuality)
	}
	em, err := newExactModel(n)
	if err != nil {
		return nil, err
	}
	obj := make([]*big.Rat, em.nVars)
	delivery := make([]*big.Rat, em.nVars)
	shares := make([][]*big.Rat, em.nVars)
	for l := 0; l < em.nVars; l++ {
		c := em.combo(l)
		delivery[l] = em.deliveryProb(c)
		shares[l] = em.sendShare(c)
		obj[l] = new(big.Rat).Mul(em.net.Rate, em.comboCost(c))
	}

	prob := ratlp.NewProblem(lp.Minimize, obj)
	for i := 1; i < em.base; i++ {
		row := make([]*big.Rat, em.nVars)
		for l := 0; l < em.nVars; l++ {
			row[l] = new(big.Rat).Mul(em.net.Rate, shares[l][i])
		}
		prob.AddConstraint(row, lp.LE, em.bw[i]) // nil bandwidth = vacuous
	}
	prob.AddConstraint(delivery, lp.GE, minQuality)
	ones := make([]*big.Rat, em.nVars)
	for l := range ones {
		ones[l] = big.NewRat(1, 1)
	}
	prob.AddConstraint(ones, lp.EQ, big.NewRat(1, 1))

	sol, err := ratlp.Solve(prob)
	if err != nil {
		return nil, fmt.Errorf("core: solving exact min-cost LP: %w", err)
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, fmt.Errorf("core: exact quality %v unattainable: %w", minQuality, ErrInfeasible)
	default:
		return nil, fmt.Errorf("core: exact min-cost LP unexpectedly %v", sol.Status)
	}
	q := new(big.Rat)
	term := new(big.Rat)
	for l, x := range sol.X {
		q.Add(q, term.Mul(delivery[l], x))
	}
	return &ExactSolution{Network: n, X: sol.X, Quality: q, Cost: sol.Objective, em: em}, nil
}

// Fraction returns the exact share of a combination (model indexing).
func (s *ExactSolution) Fraction(c Combo) *big.Rat {
	if len(c) != s.em.m {
		return new(big.Rat)
	}
	for _, i := range c {
		if i < 0 || i >= s.em.base {
			return new(big.Rat)
		}
	}
	return s.X[s.em.index(c)]
}

// ActiveCombos returns the nonzero combinations sorted by decreasing
// share.
func (s *ExactSolution) ActiveCombos() []ExactComboShare {
	var out []ExactComboShare
	zero := new(big.Rat)
	for l, x := range s.X {
		if x.Cmp(zero) > 0 {
			out = append(out, ExactComboShare{Combo: s.em.combo(l), Fraction: x})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		switch out[a].Fraction.Cmp(out[b].Fraction) {
		case 1:
			return true
		case -1:
			return false
		}
		return s.em.index(out[a].Combo) < s.em.index(out[b].Combo)
	})
	return out
}

// ExactComboShare pairs a combination with its exact share.
type ExactComboShare struct {
	Combo    Combo
	Fraction *big.Rat
}

// String renders like a Table IV row, with exact fractions.
func (s *ExactSolution) String() string {
	var b strings.Builder
	q, _ := new(big.Rat).Mul(s.Quality, big.NewRat(100, 1)).Float64()
	fmt.Fprintf(&b, "quality %s (%.1f%%)", s.Quality.RatString(), q)
	for _, cs := range s.ActiveCombos() {
		fmt.Fprintf(&b, "  %s=%s", cs.Combo, cs.Fraction.RatString())
	}
	return b.String()
}
