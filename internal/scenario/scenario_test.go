package scenario

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/dist"
)

const tableIIIJSON = `{
	"rate_mbps": 90,
	"lifetime_ms": 800,
	"paths": [
		{"name": "path1", "bandwidth_mbps": 80, "delay_ms": 450, "loss": 0.2},
		{"name": "path2", "bandwidth_mbps": 20, "delay_ms": 150}
	]
}`

func TestLoadAndConvert(t *testing.T) {
	var n Network
	if err := Load(strings.NewReader(tableIIIJSON), &n); err != nil {
		t.Fatal(err)
	}
	net, err := n.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if net.Rate != 90e6 || net.Lifetime != 800*time.Millisecond {
		t.Errorf("rate %v lifetime %v", net.Rate, net.Lifetime)
	}
	if len(net.Paths) != 2 || net.Paths[0].Loss != 0.2 || net.Paths[1].Delay != 150*time.Millisecond {
		t.Errorf("paths wrong: %+v", net.Paths)
	}
	if !math.IsInf(net.CostBound, 1) {
		t.Errorf("default cost bound should be unlimited, got %v", net.CostBound)
	}
}

// TestToNetworkAllocs pins the conversion at two allocations, the
// network and its path slice, however many paths it carries.
func TestToNetworkAllocs(t *testing.T) {
	for _, paths := range []int{3, 40} {
		n := Network{RateMbps: 90, LifetimeMs: 800, Transmissions: 2}
		for i := range paths {
			n.Paths = append(n.Paths, Path{BandwidthMbps: 20, DelayMs: float64(100 + i), Loss: 0.1})
		}
		if _, err := n.ToNetwork(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { n.ToNetwork() }); allocs != 2 {
			t.Errorf("%d paths: ToNetwork made %v allocations, want 2", paths, allocs)
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	var n Network
	err := Load(strings.NewReader(`{"rate_mbps": 1, "lifetime_ms": 1, "bogus": 2, "paths": []}`), &n)
	if err == nil {
		t.Error("unknown field accepted")
	}
}

func TestGammaDelayPath(t *testing.T) {
	var n Network
	err := Load(strings.NewReader(`{
		"rate_mbps": 90, "lifetime_ms": 750,
		"paths": [
			{"name": "p1", "bandwidth_mbps": 80, "loss": 0.2,
			 "delay_gamma": {"loc_ms": 400, "shape": 10, "scale_ms": 4}},
			{"name": "p2", "bandwidth_mbps": 20, "delay_ms": 100}
		]
	}`), &n)
	if err != nil {
		t.Fatal(err)
	}
	net, err := n.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	g, ok := net.Paths[0].RandDelay.(dist.ShiftedGamma)
	if !ok {
		t.Fatal("gamma delay not built")
	}
	if g.Shape != 10 || g.Loc != 400*time.Millisecond {
		t.Errorf("gamma params wrong: %+v", g)
	}
	// Delay field mirrors the mean for estimation paths.
	if (net.Paths[0].Delay - 440*time.Millisecond).Abs() > time.Millisecond {
		t.Errorf("delay = %v, want mean 440ms", net.Paths[0].Delay)
	}
}

func TestGammaValidation(t *testing.T) {
	n := Network{RateMbps: 1, LifetimeMs: 100, Paths: []Path{
		{BandwidthMbps: 1, DelayGamma: &Gamma{LocMs: 10, Shape: 0, ScaleMs: 1}},
	}}
	if _, err := n.ToNetwork(); err == nil {
		t.Error("zero gamma shape accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	var n Network
	if err := Load(strings.NewReader(tableIIIJSON), &n); err != nil {
		t.Fatal(err)
	}
	net, err := n.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	back := FromNetwork(net)
	if back.RateMbps != 90 || back.LifetimeMs != 800 || len(back.Paths) != 2 {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if back.Paths[0].BandwidthMbps != 80 || back.Paths[0].Loss != 0.2 {
		t.Errorf("path fields lost: %+v", back.Paths[0])
	}
	if back.CostBound != nil {
		t.Error("unlimited cost bound should stay omitted")
	}
	cb := 5.0
	n.CostBound = &cb
	net2, err := n.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	back2 := FromNetwork(net2)
	if back2.CostBound == nil || *back2.CostBound != 5 {
		t.Error("cost bound lost")
	}
	// Gamma round trip.
	gnet := Network{RateMbps: 1, LifetimeMs: 500, Paths: []Path{
		{BandwidthMbps: 10, DelayGamma: &Gamma{LocMs: 100, Shape: 5, ScaleMs: 2}},
	}}
	gn, err := gnet.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	gback := FromNetwork(gn)
	if gback.Paths[0].DelayGamma == nil || gback.Paths[0].DelayGamma.Shape != 5 {
		t.Error("gamma lost in round trip")
	}
}

func TestSimulationRunAccurateModel(t *testing.T) {
	var sim Simulation
	// Unsaturated scenario (λ = 15 < b₂ = 20 Mbps) so "model == truth" is
	// benign: at the LP's usual 100 % utilization, queueing delay makes
	// an exact model marginal by construction (that regime is what the
	// paper's padded delays and Experiment 3 address).
	err := Load(strings.NewReader(`{
		"model": {
			"rate_mbps": 15, "lifetime_ms": 800,
			"paths": [
				{"name": "path1", "bandwidth_mbps": 80, "delay_ms": 450, "loss": 0.2},
				{"name": "path2", "bandwidth_mbps": 20, "delay_ms": 150}
			]
		},
		"messages": 3000,
		"timeout_margin_ms": 0,
		"seed": 4
	}`), &sim)
	if err != nil {
		t.Fatal(err)
	}
	res, sol, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Quality-1) > 1e-9 {
		t.Errorf("model quality %v, want 1", sol.Quality)
	}
	if math.Abs(res.Quality()-sol.Quality) > 0.02 {
		t.Errorf("sim %v vs model %v", res.Quality(), sol.Quality)
	}
}

func TestSimulationRunWithDivergentTruth(t *testing.T) {
	var sim Simulation
	err := Load(strings.NewReader(`{
		"model": `+tableIIIJSON+`,
		"true": {
			"rate_mbps": 90, "lifetime_ms": 800,
			"paths": [
				{"name": "path1", "bandwidth_mbps": 80, "delay_ms": 400, "loss": 0.2},
				{"name": "path2", "bandwidth_mbps": 20, "delay_ms": 100}
			]
		},
		"messages": 3000,
		"seed": 9
	}`), &sim)
	if err != nil {
		t.Fatal(err)
	}
	res, sol, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Quality()-sol.Quality) > 0.02 {
		t.Errorf("Experiment 1 setup: sim %v vs model %v", res.Quality(), sol.Quality)
	}
}

func TestSimulationRunRandomDelays(t *testing.T) {
	var sim Simulation
	err := Load(strings.NewReader(`{
		"model": {
			"rate_mbps": 90, "lifetime_ms": 750,
			"paths": [
				{"name": "p1", "bandwidth_mbps": 80, "loss": 0.2,
				 "delay_gamma": {"loc_ms": 400, "shape": 10, "scale_ms": 4}},
				{"name": "p2", "bandwidth_mbps": 20,
				 "delay_gamma": {"loc_ms": 100, "shape": 5, "scale_ms": 2}}
			]
		},
		"messages": 4000,
		"seed": 2
	}`), &sim)
	if err != nil {
		t.Fatal(err)
	}
	res, sol, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Quality < 0.90 {
		t.Errorf("model quality %v", sol.Quality)
	}
	if math.Abs(res.Quality()-sol.Quality) > 0.04 {
		t.Errorf("sim %v vs model %v", res.Quality(), sol.Quality)
	}
}

func TestSimulationPathCountMismatch(t *testing.T) {
	var sim Simulation
	err := Load(strings.NewReader(`{
		"model": `+tableIIIJSON+`,
		"true": {"rate_mbps": 90, "lifetime_ms": 800,
			"paths": [{"bandwidth_mbps": 80, "delay_ms": 400}]},
		"messages": 10
	}`), &sim)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Run(); err == nil {
		t.Error("mismatched path count accepted")
	}
}

func TestInvalidNetworkPropagates(t *testing.T) {
	n := Network{RateMbps: -1, LifetimeMs: 100, Paths: []Path{{BandwidthMbps: 1}}}
	if _, err := n.ToNetwork(); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestSolveValidate(t *testing.T) {
	base := Network{RateMbps: 10, LifetimeMs: 500, Paths: []Path{{BandwidthMbps: 10}}}
	cases := []struct {
		name string
		req  Solve
		ok   bool
	}{
		{"default objective", Solve{Network: base}, true},
		{"quality", Solve{Network: base, Objective: "quality"}, true},
		{"mincost", Solve{Network: base, Objective: "mincost", MinQuality: 0.9}, true},
		{"random with timeout spec", Solve{Network: base, Objective: "random",
			Timeout: &TimeoutSpec{GridStepMs: 2, RefineLevels: 1, ConvolutionNodes: 400}}, true},
		{"unknown objective", Solve{Network: base, Objective: "fastest"}, false},
		{"floor above 1", Solve{Network: base, Objective: "mincost", MinQuality: 1.5}, false},
		{"floor below 0", Solve{Network: base, MinQuality: -0.1}, false},
		{"floor NaN", Solve{Network: base, MinQuality: math.NaN()}, false},
		{"negative grid step", Solve{Network: base, Timeout: &TimeoutSpec{GridStepMs: -1}}, false},
		{"negative refine levels", Solve{Network: base, Timeout: &TimeoutSpec{RefineLevels: -1}}, false},
		{"negative nodes", Solve{Network: base, Timeout: &TimeoutSpec{ConvolutionNodes: -1}}, false},
	}
	for _, tc := range cases {
		if err := tc.req.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestTimeoutSpecOptions(t *testing.T) {
	opts := TimeoutSpec{GridStepMs: 2.5, RefineLevels: 3, ConvolutionNodes: 700}.Options()
	if opts.GridStep != 2500*time.Microsecond || opts.RefineLevels != 3 || opts.ConvolutionNodes != 700 {
		t.Fatalf("Options() = %+v", opts)
	}
}

// TestSolveRequestRoundTrip pins the wire field names: a request built
// from Go values must marshal to the documented JSON and back.
func TestSolveRequestRoundTrip(t *testing.T) {
	in := `{"network":{"rate_mbps":90,"lifetime_ms":800,"paths":[{"bandwidth_mbps":80,"delay_ms":450,"loss":0.2}]},` +
		`"objective":"mincost","min_quality":0.9,"timeout":{"grid_step_ms":2},"session_id":"s1","estimator":true}`
	var req SolveRequest
	if err := Load(strings.NewReader(in), &req); err != nil {
		t.Fatal(err)
	}
	if req.SessionID != "s1" || !req.Estimator || req.Objective != "mincost" ||
		req.MinQuality != 0.9 || req.Timeout == nil || req.Timeout.GridStepMs != 2 {
		t.Fatalf("parsed request wrong: %+v", req)
	}
	out, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != in {
		t.Fatalf("round trip drifted:\n in: %s\nout: %s", in, out)
	}
}

// TestNewSolveResult extracts a wire result from a real solve and
// checks it against the Solution it came from.
func TestNewSolveResult(t *testing.T) {
	var jn Network
	if err := Load(strings.NewReader(tableIIIJSON), &jn); err != nil {
		t.Fatal(err)
	}
	net, err := jn.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.SolveQuality(net)
	if err != nil {
		t.Fatal(err)
	}
	res := NewSolveResult(sol, nil)
	if res.Quality != sol.Quality {
		t.Fatalf("quality %v vs %v", res.Quality, sol.Quality)
	}
	var total float64
	for _, sh := range res.Shares {
		total += sh.Fraction
		if len(sh.Combo) != 2 {
			t.Fatalf("combo length %d, want transmissions=2", len(sh.Combo))
		}
	}
	if math.Abs(total+res.DropRateMbps*1e6/net.Rate-1) > 1e-6 {
		t.Fatalf("shares %v + drop %v Mbps do not conserve traffic", total, res.DropRateMbps)
	}
	if len(res.PathRatesMbps) != 2 {
		t.Fatalf("path rates %v", res.PathRatesMbps)
	}
	if res.Dispatch != string(core.DispatchDense) {
		t.Fatalf("dispatch %q", res.Dispatch)
	}

	// Random objective: the timeout table must survive, undefined pairs
	// as -1.
	to := core.NewTimeouts(2)
	to.Set(0, 1, 120*time.Millisecond)
	rres := NewSolveResult(sol, to)
	if rres.TimeoutsMs[0][1] != 120 || rres.TimeoutsMs[0][0] != -1 {
		t.Fatalf("timeout table %v", rres.TimeoutsMs)
	}
}
