package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"
)

// FuzzPricerMatchesEnumeration checks the branch-and-bound pricing
// oracle's contract against brute force over all (n+1)^m combinations,
// each priced from evalColumn's column and the duals: the result is
// empty exactly when no combination prices above the floor, every
// returned combination prices above it, none repeats, and the best
// returned one attains the maximum. It checks the partition too: no
// two returned combinations share a first attempt, and when at most
// cgColumnsPerIter first paths that lead a subproblem reach the floor,
// each one's enumerated best is returned. Every draw's send-time grid
// must bound the enumerated continuations too (checkGridBound).
// Networks have 1–6 paths and 1–4 transmissions, or 1–4 paths and 5–6
// transmissions, with delays and deadlines drawn so that chains run out
// of time at different depths (sometimes landing exactly on δ); duals
// are random for both gain forms — quality with and without the cost
// row, and min-cost with the clamps repriceMinCost applies.
func FuzzPricerMatchesEnumeration(f *testing.F) {
	for shape := range 36 {
		f.Add(uint64(shape)*0x9e3779b97f4a7c15+1, uint8(shape))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(shape)))
		paths, trans := 1+int(shape)%6, 1+int(shape/6)%6
		if trans >= 5 {
			paths = 1 + int(shape)%4 // at most 5^6 combinations to enumerate
		}
		n := pricerTestNetwork(rng, paths, trans)
		m, err := newModel(n)
		if err != nil {
			t.Fatal(err)
		}
		pr := new(pricer)
		pr.bind(m)
		for draw := range 6 {
			g := drawPricingDuals(rng, m, pr, draw%3)
			checkGridBound(t, pr)
			e := enumeratePricing(m, g.gain, 1e-12*g.scale)
			// A first attempt leads a subproblem when it is in time and
			// gains: alone, it prices above the all-blackhole column.
			empty := g.gain(make([]int, m.m))
			for i := 1; i < m.base; i++ {
				single := make([]int, m.m)
				single[0] = i
				e.leads[i] = g.gain(single)-empty > e.tol
			}
			for _, floor := range []float64{cgPriceTol, e.best - 1e-3*g.scale, e.best - 1e-9*g.scale, e.best + 1e-9*g.scale, math.Inf(-1)} {
				e.check(t, m.m, pr.price(floor), floor)
			}
		}
	})
}

// TestPricerGridBound checks the bound the pricing search reads with
// two or more attempts left below a child: on every pass, each
// tabulated V̂(r, g) is at least the best continuation of up to r more
// attempts from the cell's send time g·Δ, enumerated chain by chain
// (checkGridBound). Networks have 1–7 paths and 3–6 transmissions, with
// the deadlines of FuzzPricerMatchesEnumeration, plus 20×5 and 12×6
// networks of the differential suites (diffRandomNetwork).
func TestPricerGridBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x6b1d, 3))
	pr := new(pricer)
	for trial := range 240 {
		var n *Network
		switch trial % 8 {
		case 6:
			n = diffRandomNetwork(rng, 20, 5)
		case 7:
			n = diffRandomNetwork(rng, 12, 6)
		default:
			n = pricerTestNetwork(rng, 1+rng.IntN(7), 3+trial%4)
		}
		m, err := newSparseModel(n)
		if err != nil {
			t.Fatal(err)
		}
		pr.bind(m)
		for draw := range 3 {
			drawPricingDuals(rng, m, pr, draw)
			checkGridBound(t, pr)
		}
	}
}

// TestGridCellsWithinBudget: the send-time grid never has more cells
// than the pass keeps paths, and filling its rows takes no more steps
// than the trans·L·(L+1)/2 of the per-path-count table the grid
// replaced, for every path count L up to the model's limit.
func TestGridCellsWithinBudget(t *testing.T) {
	for trans := 3; trans <= MaxTransmissions; trans++ {
		for paths := 1; paths <= 1600; paths++ {
			g := gridCells(paths, trans)
			steps := (trans-2)*paths*g + g + paths // rows r ≥ 2, then the r = 1 sweep
			if g < 1 || g > paths || steps > trans*paths*(paths+1)/2 {
				t.Fatalf("%d paths, %d transmissions: %d cells, %d steps", paths, trans, g, steps)
			}
		}
	}
}

// checkGridBound holds the pricer's loaded send-time grid against brute
// force: for r = 1..trans−1 and every cell g, V̂(r, g) must be at least
// bestContinuation from g·Δ, within the search's pruning margin, and
// the padding cell past the grid must hold 0.
func checkGridBound(t *testing.T, pr *pricer) {
	t.Helper()
	for r := 1; r < pr.trans && pr.grid > 0; r++ {
		row := pr.row(r)
		for g := range pr.grid {
			send := time.Duration(g) * pr.dt
			if best := bestContinuation(pr, r, send, 1, 0); row[g] < best-pr.slack {
				t.Fatalf("%d paths, %d transmissions: V̂(%d, cell %d at %v) = %v, below the best continuation %v",
					len(pr.order), pr.trans, r, g, send, row[g], best)
			}
		}
		if row[pr.grid] != 0 {
			t.Fatalf("V̂(%d) past the grid is %v, want 0", r, row[pr.grid])
		}
	}
}

// bestContinuation returns the largest accumulated gain of any chain of
// up to r more in-time attempts on the pricer's kept paths, the first
// sent at t, starting from survival mass surv and accumulated gain acc
// and valued the way search accumulates it.
func bestContinuation(pr *pricer, r int, t time.Duration, surv, acc float64) float64 {
	best := acc
	if r == 0 {
		return best
	}
	for _, c := range pr.order {
		if t <= c.latest {
			best = max(best, bestContinuation(pr, r-1, sendAfter(t, c.step), surv*c.loss, acc+surv*c.gain))
		}
	}
	return best
}

// TestRandomPricerMatchesEnumeration checks the random-delay objective's
// pricing scan against brute force over all (n+1)² pairs, each priced
// from evalColumn's column and the duals, with the oracle contract and
// the partition checks of FuzzPricerMatchesEnumeration. The scan solves
// every first path's subproblem, so every first path leads one.
// Networks have 1–40 paths, mixed gamma and deterministic delays, and
// timeout tables with undefined pairs; duals are random, with and
// without the cost row.
func TestRandomPricerMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x5ca2, 2))
	var ro randomObjective
	for trial := range 60 {
		paths := 1 + trial%8
		if trial%4 == 3 {
			paths = 20 + rng.IntN(21)
		}
		n := randomDelayNetwork(rng, paths)
		m, err := newModel(n)
		if err != nil {
			t.Fatal(err)
		}
		ro.load(m, randomTimeouts(rng, n))
		λ := n.Rate
		w := make([]float64, m.base) // per model path: the price of one unit of share
		for draw := range 4 {
			duals := make([]float64, 0, m.base+1)
			for range paths {
				y := 0.0
				if rng.IntN(2) == 0 {
					y = rng.Float64() / λ
				}
				duals = append(duals, y)
			}
			yCost := 0.0
			if !math.IsInf(n.CostBound, 1) {
				yCost = rng.Float64() / λ
				duals = append(duals, yCost)
			}
			y0 := rng.Float64()*2 - 1
			ro.reprice(append(duals, y0))
			wmax := 0.0
			for i := 1; i < m.base; i++ {
				w[i] = λ * (duals[i-1] + yCost*m.paths[i].Cost)
				wmax = max(wmax, w[i])
			}
			gain := func(c []int) float64 {
				weights := make([]float64, 2)
				delivery, _ := ro.evalColumn(c, weights)
				v := delivery - y0
				for k, i := range c {
					v -= w[i] * weights[k]
				}
				return v
			}
			scale := 1 + math.Abs(y0) + 2*wmax
			e := enumeratePricing(m, gain, 1e-12*scale)
			e.what = fmt.Sprintf("trial %d (%d paths) draw %d: ", trial, paths, draw)
			for i := range e.leads {
				e.leads[i] = true
			}
			for _, floor := range []float64{cgPriceTol, e.best - 1e-3*scale, e.best - 1e-9*scale, e.best + 1e-9*scale, e.kth(cgColumnsPerIter / 2), math.Inf(-1)} {
				e.check(t, 2, ro.price(floor), floor)
			}
		}
	}
}

// pricingEnum is a brute force's view of one dual draw: each first
// attempt's best gain over the combinations it leads, and whether the
// oracle must solve that first attempt's subproblem (the all-blackhole
// first attempt always).
type pricingEnum struct {
	what      string // prefixes failure messages
	gain      func([]int) float64
	firstBest []float64
	leads     []bool
	best, tol float64
}

// enumeratePricing prices all combinations of the dense model m.
func enumeratePricing(m *model, gain func([]int) float64, tol float64) *pricingEnum {
	e := &pricingEnum{gain: gain, firstBest: make([]float64, m.base), leads: make([]bool, m.base), best: math.Inf(-1), tol: tol}
	for i := range e.firstBest {
		e.firstBest[i] = math.Inf(-1)
	}
	c := make([]int, m.m)
	for range m.nVars {
		v := gain(c)
		e.firstBest[c[0]] = max(e.firstBest[c[0]], v)
		e.best = max(e.best, v)
		m.nextCombo(c)
	}
	e.leads[0] = true
	return e
}

// kth returns the k-th best gain among the first attempts that lead a
// subproblem (−∞ when fewer lead): a floor that about k winners clear.
func (e *pricingEnum) kth(k int) float64 {
	var bests []float64
	for i, ok := range e.leads {
		if ok {
			bests = append(bests, e.firstBest[i])
		}
	}
	slices.Sort(bests)
	if k > len(bests) {
		return math.Inf(-1)
	}
	return bests[len(bests)-k]
}

// check holds an oracle's answer got at floor against the enumeration.
func (e *pricingEnum) check(t *testing.T, width int, got [][]int, floor float64) {
	t.Helper()
	tol := e.tol
	if len(got) == 0 {
		if e.best > floor+tol {
			t.Fatalf("%sfloor %v: oracle found nothing, enumeration reaches %v", e.what, floor, e.best)
		}
		return
	}
	if e.best <= floor-tol {
		t.Fatalf("%sfloor %v: enumeration max %v, yet the oracle returned %d combinations", e.what, floor, e.best, len(got))
	}
	if len(got) > cgColumnsPerIter {
		t.Fatalf("%sfloor %v: %d combinations, want at most %d", e.what, floor, len(got), cgColumnsPerIter)
	}
	base := len(e.firstBest)
	seen := make(map[string]bool, len(got))
	byFirst := make(map[int][]int, len(got))
	top := math.Inf(-1)
	for _, c := range got {
		if len(c) != width {
			t.Fatalf("%scombination %v has %d digits, want %d", e.what, c, len(c), width)
		}
		for _, i := range c {
			if i < 0 || i >= base {
				t.Fatalf("%scombination %v: digit outside [0, %d)", e.what, c, base)
			}
		}
		if key := fmt.Sprint(c); seen[key] {
			t.Fatalf("%scombination %v returned twice", e.what, c)
		} else {
			seen[key] = true
		}
		if d, ok := byFirst[c[0]]; ok {
			t.Fatalf("%sfloor %v: combinations %v and %v share their first attempt", e.what, floor, d, c)
		}
		byFirst[c[0]] = c
		v := e.gain(c)
		if v <= floor-tol {
			t.Fatalf("%sfloor %v: combination %v prices %v", e.what, floor, c, v)
		}
		top = max(top, v)
	}
	if math.Abs(top-e.best) > tol {
		t.Fatalf("%sfloor %v: best returned gain %v, enumeration max %v", e.what, floor, top, e.best)
	}
	reaching := 0
	for i, ok := range e.leads {
		if ok && e.firstBest[i] > floor-tol {
			reaching++
		}
	}
	if reaching > cgColumnsPerIter {
		return
	}
	for i, ok := range e.leads {
		if !ok || e.firstBest[i] <= floor+tol {
			continue
		}
		c, found := byFirst[i]
		if !found {
			t.Fatalf("%sfloor %v: %d first paths reach it, yet none returned starts with %d (its best prices %v)", e.what, floor, reaching, i, e.firstBest[i])
		}
		if v := e.gain(c); v < e.firstBest[i]-tol {
			t.Fatalf("%sfloor %v: %v prices %v, its first path's best %v", e.what, floor, c, v, e.firstBest[i])
		}
	}
}

// pricerTestNetwork draws a network whose delays straddle the deadline:
// the fastest path sets d_min, and δ falls anywhere from one fast
// attempt to m slow ones, sometimes exactly on a two-attempt arrival.
func pricerTestNetwork(rng *rand.Rand, paths, trans int) *Network {
	ps := make([]Path, paths)
	rate := (1 + rng.Float64()*9) * Mbps
	dmin := time.Duration(1+rng.IntN(100)) * time.Millisecond
	slowest := dmin
	for i := range ps {
		d := dmin
		switch {
		case i > 0 && rng.IntN(4) == 0:
			d = ps[rng.IntN(i)].Delay // tied delays
		case i > 0:
			d += time.Duration(rng.IntN(500)) * time.Millisecond
		}
		slowest = max(slowest, d)
		loss := rng.Float64() * 0.6
		switch rng.IntN(8) {
		case 0:
			loss = 0
		case 1:
			loss = 1
		}
		ps[i] = Path{
			Bandwidth: (1 + rng.Float64()*9) * Mbps,
			Delay:     d,
			Loss:      loss,
			Cost:      float64(rng.IntN(3)) * rng.Float64() / rate, // λ·c ∈ [0, 2)
		}
	}
	δ := dmin + time.Duration(rng.Int64N(int64(trans)*int64(slowest+dmin)))
	if rng.IntN(4) == 0 {
		δ = ps[rng.IntN(paths)].Delay + dmin + ps[rng.IntN(paths)].Delay
	}
	n := NewNetwork(rate, δ, ps...)
	n.Transmissions = trans
	n.CostBound = 10
	return n
}

// pricingDuals is one dual draw, loaded into the pricer, with the same
// gain recomputed column by column for the brute force.
type pricingDuals struct {
	m     *model
	alpha float64   // delivery weight: 1, or the clamped y_q
	w     []float64 // per model path: the price of one unit of share
	y0    float64   // subtracted from every column's gain
	scale float64   // bound on any one term's magnitude
}

// gain prices combo from its evaluated column: α·p_l − Σᵢ wᵢ·shareₗ[i] − y₀,
// with shareₗ[i] its attempts' weights on path i summed in attempt order.
func (g *pricingDuals) gain(combo []int) float64 {
	weights := make([]float64, len(combo))
	delivery, _ := g.m.evalColumn(combo, weights)
	share := make([]float64, g.m.base)
	for k, i := range combo {
		share[i] += weights[k]
	}
	v := g.alpha*delivery - g.y0
	for i := 1; i < g.m.base; i++ {
		v -= g.w[i] * share[i]
	}
	return v
}

// drawPricingDuals loads random duals of one gain form into pr: 0 is
// quality without the cost row, 1 quality with it, 2 min-cost.
// Quality bandwidth and cost duals are ≥ 0, as the maximization's ≤
// rows give them; min-cost duals take either sign, so the clamps act.
func drawPricingDuals(rng *rand.Rand, m *model, pr *pricer, form int) *pricingDuals {
	λ := m.net.Rate
	real := m.base - 1
	yBW := make([]float64, real)
	g := &pricingDuals{m: m, w: make([]float64, m.base)}
	switch form {
	case 0, 1:
		for i := range yBW {
			if rng.IntN(2) == 0 {
				yBW[i] = rng.Float64() / λ
			}
		}
		yCost := 0.0
		if form == 1 {
			yCost = rng.Float64() * 0.5
		}
		g.alpha, g.y0 = 1, rng.Float64()*2-1
		for i := 1; i < m.base; i++ {
			g.w[i] = λ * (yBW[i-1] + yCost*m.paths[i].Cost)
		}
		pr.repriceQuality(yBW, yCost, g.y0)
	default:
		for i := range yBW {
			yBW[i] = (rng.Float64()*2 - 1) / λ
		}
		yQ, y0 := rng.Float64()*4-1, rng.Float64()*2-1
		g.alpha, g.y0 = max(yQ, 0), -y0
		for i := 1; i < m.base; i++ {
			g.w[i] = max(λ*(m.paths[i].Cost-yBW[i-1]), 0)
		}
		pr.repriceMinCost(yBW, yQ, y0)
	}
	wmax := 0.0
	for _, w := range g.w {
		wmax = max(wmax, w)
	}
	g.scale = max(1, math.Abs(g.y0)+float64(m.m)*(g.alpha+wmax))
	return g
}

// TestScratchReuseAcrossShapes: one pooled workspace serves solves of
// any shape in turn, so its pricing oracle and pair tables must carry
// nothing from one shape to the next. One pricer, bound in turn to
// models of five shapes under fixed duals, must price exactly what a
// fresh pricer prices — the same combinations in the same order, with
// bit-identical gains — and one randomObjective, loaded for three
// shapes, must tabulate exactly what a fresh one does.
func TestScratchReuseAcrossShapes(t *testing.T) {
	sparse := func(paths, trans int) *model {
		m, err := newSparseModel(diffRandomNetwork(rand.New(rand.NewPCG(uint64(paths), uint64(trans))), paths, trans))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// pass binds pr to m, loads the duals of every gain form in turn and
	// returns each pricing pass's combinations and gains.
	pass := func(pr *pricer, m *model) (combos [][]int, gains []float64) {
		pr.bind(m)
		rng := rand.New(rand.NewPCG(uint64(m.base), uint64(m.m)))
		for form := range 3 {
			drawPricingDuals(rng, m, pr, form)
			for _, c := range pr.price(math.Inf(-1)) {
				combos = append(combos, append([]int(nil), c...))
			}
			byslot := make([]float64, pr.top.n)
			for _, e := range pr.top.heap[:pr.top.n] {
				byslot[e.slot] = e.rc
			}
			gains = append(gains, byslot...)
		}
		return combos, gains
	}
	reused := new(pricer)
	for _, sh := range [][2]int{{3, 2}, {40, 4}, {10, 5}, {1, 1}, {3, 2}} {
		m := sparse(sh[0], sh[1])
		gotC, gotG := pass(reused, m)
		wantC, wantG := pass(new(pricer), m)
		if !reflect.DeepEqual(gotC, wantC) {
			t.Fatalf("%d×%d: reused pricer returned %v, fresh %v", sh[0], sh[1], gotC, wantC)
		}
		for k := range wantG {
			if math.Float64bits(gotG[k]) != math.Float64bits(wantG[k]) {
				t.Fatalf("%d×%d: gain %d is %v reused, %v fresh", sh[0], sh[1], k, gotG[k], wantG[k])
			}
		}
	}

	var ro randomObjective
	for _, paths := range []int{3, 40, 3} {
		m := sparse(paths, 2)
		to := randomResolveTimeouts(t, m.net)
		ro.load(m, to)
		var fresh randomObjective
		fresh.load(m, to)
		for _, tab := range []struct {
			name      string
			got, want []float64
		}{
			{"firstDeliver", ro.firstDeliver, fresh.firstDeliver},
			{"pDrop", ro.pDrop, fresh.pDrop},
			{"pRetr", ro.pRetr, fresh.pRetr},
			{"pDeliver", ro.pDeliver, fresh.pDeliver},
		} {
			if len(tab.got) != len(tab.want) {
				t.Fatalf("%d×2 %s: %d entries reused, %d fresh", paths, tab.name, len(tab.got), len(tab.want))
			}
			for k := range tab.want {
				if math.Float64bits(tab.got[k]) != math.Float64bits(tab.want[k]) {
					t.Fatalf("%d×2 %s[%d]: %v reused, %v fresh", paths, tab.name, k, tab.got[k], tab.want[k])
				}
			}
		}
	}
}
