package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestLoadAwareZeroModelsMatchesPlainSolve(t *testing.T) {
	n := tableIIINetwork(90, 800*time.Millisecond)
	plain := solveQ(t, n)
	sol, loads, err := SolveQualityLoadAware(n, make([]LoadModel, 2), LoadAwareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Quality-plain.Quality) > 1e-12 {
		t.Errorf("zero models changed quality: %v vs %v", sol.Quality, plain.Quality)
	}
	if len(loads) != 2 {
		t.Fatalf("loads = %v", loads)
	}
	for i, l := range loads {
		if l.EffectiveDelay != n.Paths[i].Delay || l.EffectiveLoss != n.Paths[i].Loss {
			t.Errorf("path %d effective characteristics changed: %+v", i, l)
		}
	}
}

func TestLoadAwareQueueingReducesQuality(t *testing.T) {
	// Path 2 develops queueing delay under load: at saturation it adds
	// ≈500 ms, which breaks the (1,2) retransmission combination
	// (needs effective d2 ≤ 200 ms at δ=800) but keeps direct use of
	// path 2 feasible. Expected fixed point: the 450–700 ms strategy with
	// Q = 38/45 instead of 14/15.
	n := tableIIINetwork(90, 800*time.Millisecond)
	plain := solveQ(t, n)
	models := []LoadModel{
		{},
		{QueueFactor: 500 * time.Microsecond},
	}
	sol, loads, err := SolveQualityLoadAware(n, models, LoadAwareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Quality > plain.Quality+1e-9 {
		t.Errorf("load-aware quality %v above load-blind %v", sol.Quality, plain.Quality)
	}
	if math.Abs(sol.Quality-38.0/45) > 1e-3 {
		t.Errorf("quality %v, want ≈38/45", sol.Quality)
	}
	if loads[1].EffectiveDelay <= n.Paths[1].Delay {
		t.Errorf("path 2 effective delay %v did not grow", loads[1].EffectiveDelay)
	}
	if loads[1].Utilization <= 0 || loads[1].Utilization > 1 {
		t.Errorf("utilization %v", loads[1].Utilization)
	}
}

func TestLoadAwareBistableDiverges(t *testing.T) {
	// A queue factor whose saturation delay dwarfs the lifetime admits no
	// interior fixed point (usable ⇒ saturated ⇒ unusable): the iteration
	// must report divergence rather than return an unstable answer.
	n := tableIIINetwork(90, 800*time.Millisecond)
	models := []LoadModel{
		{},
		{QueueFactor: 40 * time.Millisecond},
	}
	_, _, err := SolveQualityLoadAware(n, models, LoadAwareOptions{})
	if !errors.Is(err, ErrLoadAwareDiverged) {
		t.Fatalf("want ErrLoadAwareDiverged for a bistable config, got %v", err)
	}
	// Zero MaxIterations means the documented default of 100.
	if !strings.Contains(err.Error(), "after 100 iterations") {
		t.Fatalf("default budget is not 100 iterations: %v", err)
	}
	// The §IX-A remedy: cap planned utilization so the modeled queueing
	// delay stays below the cliff; then a stable operating point exists.
	// At u = 0.85, path 2's delay is 150 + 40·0.85/0.15 ≈ 377 ms ≤ 800.
	sol, loads, err := SolveQualityLoadAware(n, models, LoadAwareOptions{UtilizationCap: 0.85})
	if err != nil {
		t.Fatalf("capped solve failed: %v", err)
	}
	if sol.Quality <= 0 {
		t.Errorf("capped quality %v", sol.Quality)
	}
	for i, l := range loads {
		if l.Utilization > 0.85+1e-6 {
			t.Errorf("path %d utilization %v exceeds cap", i, l.Utilization)
		}
	}
}

func TestLoadAwareLossKnee(t *testing.T) {
	// A single path pushed past its loss knee: effective loss grows, and
	// the solution's quality accounts for it.
	n := NewNetwork(9*Mbps, 500*time.Millisecond,
		Path{Bandwidth: 10 * Mbps, Delay: 50 * time.Millisecond, Loss: 0.01})
	n.Transmissions = 1
	models := []LoadModel{{LossKnee: 0.5, LossSlope: 0.2}}
	sol, loads, err := SolveQualityLoadAware(n, models, LoadAwareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Utilization ≈ 0.9 → extra loss ≈ 0.2·(0.9−0.5)/0.5 = 0.16.
	if loads[0].EffectiveLoss < 0.1 {
		t.Errorf("effective loss %v did not pass the knee", loads[0].EffectiveLoss)
	}
	// The returned solution was solved one (converged) step before the
	// final blend, so allow the tolerance-sized slack.
	want := 1 - loads[0].EffectiveLoss
	if math.Abs(sol.Quality-want) > 2e-3 {
		t.Errorf("quality %v, want ≈%v (1 − effective loss)", sol.Quality, want)
	}
}

func TestLoadAwareConverges(t *testing.T) {
	// Aggressive feedback still converges with damping.
	n := tableIIINetwork(120, 800*time.Millisecond)
	models := []LoadModel{
		{QueueFactor: 30 * time.Millisecond, LossKnee: 0.8, LossSlope: 0.1},
		{QueueFactor: 30 * time.Millisecond, LossKnee: 0.8, LossSlope: 0.1},
	}
	sol, loads, err := SolveQualityLoadAware(n, models, LoadAwareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Quality <= 0 || sol.Quality > 1 {
		t.Errorf("quality %v", sol.Quality)
	}
	// The reported operating point must be internally consistent: the
	// effective characteristics equal the load model applied at the
	// reported utilization. (A stronger re-solve check is wrong here: the
	// LP's load response is discontinuous, and the fixed point may sit
	// exactly on a feasibility threshold.)
	for i := range loads {
		wantD, wantL := models[i].apply(n.Paths[i], loads[i].Utilization)
		if loads[i].EffectiveDelay != wantD || math.Abs(loads[i].EffectiveLoss-wantL) > 1e-12 {
			t.Errorf("path %d: reported load point inconsistent: %+v", i, loads[i])
		}
		if loads[i].Utilization < 0 || loads[i].Utilization > 1 {
			t.Errorf("path %d: utilization %v", i, loads[i].Utilization)
		}
	}
}

func TestLoadAwareValidation(t *testing.T) {
	n := tableIIINetwork(90, 800*time.Millisecond)
	if _, _, err := SolveQualityLoadAware(n, make([]LoadModel, 1), LoadAwareOptions{}); err == nil {
		t.Error("model count mismatch accepted")
	}
	bad := []LoadModel{{QueueFactor: -1}, {}}
	if _, _, err := SolveQualityLoadAware(n, bad, LoadAwareOptions{}); err == nil {
		t.Error("negative queue factor accepted")
	}
	bad2 := []LoadModel{{LossKnee: 1.5}, {}}
	if _, _, err := SolveQualityLoadAware(n, bad2, LoadAwareOptions{}); err == nil {
		t.Error("bad knee accepted")
	}
	bad3 := []LoadModel{{LossSlope: -0.1}, {}}
	if _, _, err := SolveQualityLoadAware(n, bad3, LoadAwareOptions{}); err == nil {
		t.Error("negative slope accepted")
	}
	invalid := *n
	invalid.Rate = 0
	if _, _, err := SolveQualityLoadAware(&invalid, make([]LoadModel, 2), LoadAwareOptions{}); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestLoadAwareDivergenceBudget(t *testing.T) {
	// One iteration with full damping on a strongly coupled system
	// should hit the budget error rather than spin.
	n := tableIIINetwork(90, 800*time.Millisecond)
	models := []LoadModel{
		{QueueFactor: 500 * time.Millisecond},
		{QueueFactor: 500 * time.Millisecond},
	}
	_, _, err := SolveQualityLoadAware(n, models, LoadAwareOptions{MaxIterations: 1, Damping: 1})
	if err == nil {
		return // converged in one step: acceptable
	}
	if !errors.Is(err, ErrLoadAwareDiverged) {
		t.Errorf("want ErrLoadAwareDiverged, got %v", err)
	}
}
