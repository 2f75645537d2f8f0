package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"dmc/internal/dist"
)

// TestCombinationCountOverflow is the regression test for the unchecked
// nVars product: path counts whose (n+1)^m overflows int64 (e.g. 3000
// paths at m = 6, ~7e20) used to wrap around the dense-size guard and
// produce garbage downstream. The checked product must bail out during
// multiplication and the dense entry points must return the descriptive
// error.
func TestCombinationCountOverflow(t *testing.T) {
	cases := []struct {
		base, m, limit int
		want           int
		ok             bool
	}{
		{3, 2, 100, 9, true},
		{11, 3, DenseLimit, 1331, true},
		{2, 22, 1 << 22, 1 << 22, true}, // exactly at the limit
		{2, 23, 1 << 22, 0, false},      // one step past
		{3001, 6, DenseLimit, 0, false}, // would overflow int64 unchecked
		{1 << 31, 6, DenseLimit, 0, false},
		{0, 2, 100, 0, false},
	}
	for _, tc := range cases {
		got, ok := combinationCount(tc.base, tc.m, tc.limit)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("combinationCount(%d, %d, %d) = %d, %v; want %d, %v",
				tc.base, tc.m, tc.limit, got, ok, tc.want, tc.ok)
		}
	}

	// End to end: a 3000-path, 6-transmission network must produce the
	// descriptive size error from every dense entry point — not a wrapped
	// count slipping past the guard.
	paths := make([]Path, 3000)
	for i := range paths {
		paths[i] = Path{Bandwidth: Mbps, Delay: 100 * time.Millisecond}
	}
	n := NewNetwork(Mbps, time.Second, paths...)
	n.Transmissions = 6
	for name, call := range map[string]func() error{
		"BuildLP":           func() error { _, err := BuildLP(n); return err },
		"SolveMinCost":      func() error { _, err := SolveMinCost(n, 0.5); return err },
		"QualityUpperBound": func() error { _, err := QualityUpperBound(n); return err },
	} {
		err := call()
		if err == nil {
			t.Errorf("%s: expected combination-space error", name)
			continue
		}
		if !strings.Contains(err.Error(), "combination") {
			t.Errorf("%s: error %q does not describe the combination blowup", name, err)
		}
	}
}

// TestShortLifetimeTimeouts is the regression test for the coarse-grid
// scan starting at lo + step: a network whose Lifetime is below the
// default 5 ms GridStep used to evaluate zero grid points and report
// every t_{i,j} undefined even though feasible timeouts exist.
func TestShortLifetimeTimeouts(t *testing.T) {
	n := NewNetwork(Mbps, 3*time.Millisecond,
		Path{Bandwidth: 10 * Mbps, RandDelay: dist.Uniform{Lo: 100 * time.Microsecond, Hi: 300 * time.Microsecond}, Loss: 0.1},
		Path{Bandwidth: 10 * Mbps, RandDelay: dist.Uniform{Lo: 200 * time.Microsecond, Hi: 500 * time.Microsecond}, Loss: 0.1},
	)
	to, err := OptimalTimeouts(n, TimeoutOptions{}) // default 5 ms grid > 3 ms lifetime
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.Paths {
		for j := range n.Paths {
			d, ok := to.Get(i, j)
			if !ok {
				t.Errorf("t[%d,%d] undefined; want a feasible timeout below the 3 ms lifetime", i, j)
				continue
			}
			if d <= 0 || d > n.Lifetime {
				t.Errorf("t[%d,%d] = %v outside (0, %v]", i, j, d, n.Lifetime)
			}
		}
	}
}

// TestGridMaximizerShortInterval covers maximizeOverGrid directly: the
// step must clamp to the interval and the upper endpoint must be probed.
func TestGridMaximizerShortInterval(t *testing.T) {
	// Objective peaked at the top of a 2 ms interval, probed with a 5 ms
	// step: pre-fix this evaluated nothing and reported no maximum.
	f := func(d time.Duration) float64 { return float64(d) }
	best, ok := maximizeOverGrid(f, 0, 2*time.Millisecond, 5*time.Millisecond, 2)
	if !ok {
		t.Fatal("no maximum found on a short interval")
	}
	if best != 2*time.Millisecond {
		t.Errorf("best = %v, want the interval endpoint 2ms", best)
	}
	// A step that does not divide the width must still probe hi.
	best, ok = maximizeOverGrid(f, 0, 10*time.Millisecond, 3*time.Millisecond, 0)
	if !ok || best != 10*time.Millisecond {
		t.Errorf("best = %v, %v; want hi probed at 10ms", best, ok)
	}
	// Degenerate interval still refuses.
	if _, ok := maximizeOverGrid(f, time.Millisecond, time.Millisecond, time.Millisecond, 1); ok {
		t.Error("empty interval should report no maximum")
	}
}

// TestValidationUniformAcrossEntryPoints audits Network.Validate: every
// public solve entry must reject non-positive lifetime, NaN fields, and
// malformed paths with an error, not solve garbage or panic.
func TestValidationUniformAcrossEntryPoints(t *testing.T) {
	valid := func() *Network {
		return NewNetwork(10*Mbps, time.Second,
			Path{Bandwidth: 10 * Mbps, Delay: 100 * time.Millisecond, Loss: 0.1},
			Path{Bandwidth: 5 * Mbps, Delay: 200 * time.Millisecond, Loss: 0.05},
		)
	}
	breakages := []struct {
		name   string
		mutate func(*Network)
	}{
		{"no paths", func(n *Network) { n.Paths = nil }},
		{"zero rate", func(n *Network) { n.Rate = 0 }},
		{"negative rate", func(n *Network) { n.Rate = -1 }},
		{"NaN rate", func(n *Network) { n.Rate = math.NaN() }},
		{"infinite rate", func(n *Network) { n.Rate = math.Inf(1) }},
		{"zero lifetime", func(n *Network) { n.Lifetime = 0 }},
		{"negative lifetime", func(n *Network) { n.Lifetime = -time.Second }},
		{"NaN cost bound", func(n *Network) { n.CostBound = math.NaN() }},
		{"negative cost bound", func(n *Network) { n.CostBound = -1 }},
		{"negative transmissions", func(n *Network) { n.Transmissions = -1 }},
		{"transmissions beyond cap", func(n *Network) { n.Transmissions = MaxTransmissions + 1 }},
		{"zero bandwidth", func(n *Network) { n.Paths[0].Bandwidth = 0 }},
		{"NaN bandwidth", func(n *Network) { n.Paths[0].Bandwidth = math.NaN() }},
		{"NaN loss", func(n *Network) { n.Paths[1].Loss = math.NaN() }},
		{"loss above one", func(n *Network) { n.Paths[1].Loss = 1.5 }},
		{"negative loss", func(n *Network) { n.Paths[1].Loss = -0.1 }},
		{"negative delay", func(n *Network) { n.Paths[0].Delay = -time.Millisecond }},
		{"NaN cost", func(n *Network) { n.Paths[0].Cost = math.NaN() }},
		{"infinite cost", func(n *Network) { n.Paths[0].Cost = math.Inf(1) }},
		{"negative cost", func(n *Network) { n.Paths[0].Cost = -1 }},
	}
	entries := map[string]func(*Network) error{
		"SolveQuality":    func(n *Network) error { _, err := SolveQuality(n); return err },
		"forced-CG":       func(n *Network) error { _, err := forceCG().SolveQuality(n); return err },
		"SolveMinCost":    func(n *Network) error { _, err := SolveMinCost(n, 0.5); return err },
		"BuildLP":         func(n *Network) error { _, err := BuildLP(n); return err },
		"QualityUpperBnd": func(n *Network) error { _, err := QualityUpperBound(n); return err },
		"OptimalTimeouts": func(n *Network) error {
			_, err := OptimalTimeouts(n, TimeoutOptions{GridStep: 100 * time.Millisecond, ConvolutionNodes: 32})
			return err
		},
		"DetTimeouts": func(n *Network) error { _, err := DeterministicTimeouts(n, 0); return err },
		"SolveMany":   func(n *Network) error { _, err := SolveMany([]*Network{n}); return err },
		"SolveQualityRandom": func(n *Network) error {
			to := NewTimeouts(len(n.Paths))
			_, err := SolveQualityRandom(n, to)
			return err
		},
	}
	for _, bk := range breakages {
		for entry, call := range entries {
			n := valid()
			bk.mutate(n)
			if err := call(n); err == nil {
				t.Errorf("%s accepted network with %s", entry, bk.name)
			}
		}
	}
	// Sanity: the unmutated network passes everywhere.
	for entry, call := range entries {
		if err := call(valid()); err != nil {
			t.Errorf("%s rejected a valid network: %v", entry, err)
		}
	}
}
