package dmc_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dmc"
)

// Example reproduces the paper's Figure 1 scenario through the public
// API: two contrasting paths reach 100 % in-time delivery together when
// neither could alone.
func Example() {
	network := dmc.NewNetwork(10*dmc.Mbps, time.Second,
		dmc.Path{Name: "big", Bandwidth: 10 * dmc.Mbps, Delay: 600 * time.Millisecond, Loss: 0.10},
		dmc.Path{Name: "fast", Bandwidth: 1 * dmc.Mbps, Delay: 200 * time.Millisecond, Loss: 0},
	)
	sol, err := dmc.SolveQuality(network)
	if err != nil {
		panic(err)
	}
	fmt.Printf("quality: %.0f%%\n", sol.Quality*100)
	fmt.Printf("x_{1,2}: %.0f%%\n", sol.Fraction(dmc.Combo{1, 2})*100)
	// Output:
	// quality: 100%
	// x_{1,2}: 100%
}

// ExampleSolveMinCost shows the §VI-A objective: cheapest strategy above
// a quality floor.
func ExampleSolveMinCost() {
	network := dmc.NewNetwork(10*dmc.Mbps, 800*time.Millisecond,
		dmc.Path{Name: "cheap", Bandwidth: 50 * dmc.Mbps, Delay: 200 * time.Millisecond, Loss: 0.3, Cost: 1},
		dmc.Path{Name: "pricey", Bandwidth: 50 * dmc.Mbps, Delay: 100 * time.Millisecond, Loss: 0, Cost: 10},
	)
	sol, err := dmc.SolveMinCost(network, 1.0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cost %.0f/s at quality %.0f%%\n", sol.Cost()/dmc.Mbps, sol.Quality*100)
	// Output:
	// cost 40/s at quality 100%
}

// ExampleOptimalTimeouts optimizes Eq. 34 retransmission timeouts under
// shifted-gamma delays (Experiment 2's setup).
func ExampleOptimalTimeouts() {
	network := dmc.NewNetwork(90*dmc.Mbps, 750*time.Millisecond,
		dmc.Path{Bandwidth: 80 * dmc.Mbps, Loss: 0.2,
			RandDelay: dmc.ShiftedGamma{Loc: 400 * time.Millisecond, Shape: 10, Scale: 4 * time.Millisecond}},
		dmc.Path{Bandwidth: 20 * dmc.Mbps, Loss: 0,
			RandDelay: dmc.ShiftedGamma{Loc: 100 * time.Millisecond, Shape: 5, Scale: 2 * time.Millisecond}},
	)
	to, err := dmc.OptimalTimeouts(network, dmc.TimeoutOptions{})
	if err != nil {
		panic(err)
	}
	if _, ok := to.Get(0, 0); !ok {
		fmt.Println("t11: no useful retransmission exists")
	}
	t12, _ := to.Get(0, 1)
	fmt.Printf("t12 within paper's ±2ms: %v\n", t12 >= 613*time.Millisecond && t12 <= 617*time.Millisecond)
	// Output:
	// t11: no useful retransmission exists
	// t12 within paper's ±2ms: true
}

func TestFacadeEndToEndSession(t *testing.T) {
	network := dmc.NewNetwork(15*dmc.Mbps, 800*time.Millisecond,
		dmc.Path{Name: "p1", Bandwidth: 80 * dmc.Mbps, Delay: 450 * time.Millisecond, Loss: 0.2},
		dmc.Path{Name: "p2", Bandwidth: 20 * dmc.Mbps, Delay: 150 * time.Millisecond, Loss: 0},
	)
	sol, err := dmc.SolveQuality(network)
	if err != nil {
		t.Fatal(err)
	}
	to, err := dmc.DeterministicTimeouts(network, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim := dmc.NewSimulator(11)
	res, err := dmc.RunSession(sim, dmc.SessionConfig{
		Solution:     sol,
		Timeouts:     to,
		TruePaths:    dmc.LinksFromNetwork(network, 0),
		MessageCount: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Quality()-sol.Quality) > 0.03 {
		t.Errorf("sim %v vs model %v", res.Quality(), sol.Quality)
	}
}

func TestFacadeExactPipeline(t *testing.T) {
	network := dmc.NewNetwork(40*dmc.Mbps, 800*time.Millisecond,
		dmc.Path{Bandwidth: 80 * dmc.Mbps, Delay: 450 * time.Millisecond, Loss: 0.2},
		dmc.Path{Bandwidth: 20 * dmc.Mbps, Delay: 150 * time.Millisecond, Loss: 0},
	)
	en, err := dmc.ExactFromFloat(network)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := dmc.SolveQualityExact(en)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := sol.Quality.Float64()
	if math.Abs(q-1) > 1e-12 {
		t.Errorf("exact quality %v, want 1", q)
	}
}

func TestFacadeAdaptorAndScheduler(t *testing.T) {
	network := dmc.NewNetwork(5*dmc.Mbps, 300*time.Millisecond,
		dmc.Path{Bandwidth: 10 * dmc.Mbps, Delay: 50 * time.Millisecond},
	)
	a, err := dmc.NewAdaptor(network)
	if err != nil {
		t.Fatal(err)
	}
	sol, solved, err := a.Solution()
	if err != nil || !solved {
		t.Fatalf("bootstrap solve failed: %v", err)
	}
	sel, err := dmc.NewDeficit(sol.X)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Select() < 0 {
		t.Error("selector returned invalid index")
	}
	if _, err := dmc.QualityUpperBound(network); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeErrInfeasible(t *testing.T) {
	network := dmc.NewNetwork(100*dmc.Mbps, 300*time.Millisecond,
		dmc.Path{Bandwidth: 10 * dmc.Mbps, Delay: 50 * time.Millisecond},
	)
	_, err := dmc.SolveMinCost(network, 1.0)
	if !errors.Is(err, dmc.ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

// TestFacadeScalableSolve: the public API must solve a network far past
// the dense n^m limit through the automatic CG dispatch and report the
// dispatch in Stats.
func TestFacadeScalableSolve(t *testing.T) {
	paths := make([]dmc.Path, 40)
	for i := range paths {
		paths[i] = dmc.Path{
			Bandwidth: 50 * dmc.Mbps,
			Delay:     time.Duration(50+10*i) * time.Millisecond,
			Loss:      0.01 * float64(i%10),
			Cost:      float64(i % 5),
		}
	}
	network := dmc.NewNetwork(1500*dmc.Mbps, time.Second, paths...)
	network.Transmissions = 4

	sol, err := dmc.SolveQuality(network)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Dispatch != dmc.DispatchCG {
		t.Errorf("dispatch = %v, want %v", sol.Stats.Dispatch, dmc.DispatchCG)
	}
	if sol.Quality <= 0 || sol.Quality > 1 {
		t.Errorf("quality = %v", sol.Quality)
	}
}

func TestFacadeLoadAwareAndRisk(t *testing.T) {
	network := dmc.NewNetwork(90*dmc.Mbps, 800*time.Millisecond,
		dmc.Path{Bandwidth: 80 * dmc.Mbps, Delay: 450 * time.Millisecond, Loss: 0.2},
		dmc.Path{Bandwidth: 20 * dmc.Mbps, Delay: 150 * time.Millisecond, Loss: 0},
	)
	sol, loads, err := dmc.SolveQualityLoadAware(network,
		[]dmc.LoadModel{{}, {QueueFactor: 500 * time.Microsecond}}, dmc.LoadAwareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 2 || sol.Quality <= 0 {
		t.Fatalf("load-aware: %v %v", sol.Quality, loads)
	}
	// Bistable configuration surfaces the documented error.
	_, _, err = dmc.SolveQualityLoadAware(network,
		[]dmc.LoadModel{{}, {QueueFactor: 40 * time.Millisecond}}, dmc.LoadAwareOptions{})
	if !errors.Is(err, dmc.ErrLoadAwareDiverged) {
		t.Errorf("want ErrLoadAwareDiverged, got %v", err)
	}

	safe, rep, err := dmc.SolveQualityRiskAdjusted(network, dmc.RiskOptions{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max() > 0.05 || safe.Quality <= 0 {
		t.Errorf("risk-adjusted: %v risk %v", safe.Quality, rep.Max())
	}
	if errors.Is(dmc.ErrRiskUnattainable, dmc.ErrInfeasible) {
		t.Error("sentinel errors must be distinct")
	}
}

func TestFacadeGilbertElliott(t *testing.T) {
	ge, err := dmc.NewGilbertElliott(0.05, 0.15, 0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	var lm dmc.LossModel = ge
	if lm.Rate() <= 0.19 || lm.Rate() >= 0.21 {
		t.Errorf("rate %v", lm.Rate())
	}
	if _, err := dmc.NewGilbertElliott(-1, 0, 0, 0); err == nil {
		t.Error("invalid GE accepted")
	}
	// Burst channels plug into LinkConfig through the façade.
	sim := dmc.NewSimulator(5)
	n := 0
	link, err := dmc.NewLink(sim, dmc.LinkConfig{Name: "ge", LossModel: ge}, func(dmc.Packet) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		link.Send(dmc.Packet{Bytes: 10})
	}
	sim.Run()
	if n == 0 || n == 100 {
		t.Errorf("delivered %d of 100 through a 20%% burst channel", n)
	}
}

func TestFacadeLinkDirectUse(t *testing.T) {
	sim := dmc.NewSimulator(3)
	got := 0
	link, err := dmc.NewLink(sim, dmc.LinkConfig{
		Name:      "raw",
		Bandwidth: 1e6,
		Delay:     dmc.Deterministic{D: 10 * time.Millisecond},
	}, func(dmc.Packet) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	link.Send(dmc.Packet{Bytes: 100})
	sim.Run()
	if got != 1 {
		t.Errorf("delivered %d", got)
	}
}

// TestFacadeServer exercises the serving façade: NewServer over HTTP
// with a session-keyed warm re-solve and a metrics snapshot.
func TestFacadeServer(t *testing.T) {
	srv, err := dmc.NewServer(dmc.ServeConfig{Shards: 1})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"network": {"rate_mbps": 10, "lifetime_ms": 1000,
		"paths": [{"bandwidth_mbps": 10, "delay_ms": 600, "loss": 0.1},
		          {"bandwidth_mbps": 1, "delay_ms": 200}]},
		"session_id": "facade"}`
	for round := 0; round < 2; round++ {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Result struct {
				Quality float64 `json:"quality"`
				Warm    bool    `json:"warm"`
			} `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// The Figure 1 scenario delivers everything in time.
		if math.Abs(out.Result.Quality-1) > 1e-9 {
			t.Fatalf("round %d quality %v, want 1", round, out.Result.Quality)
		}
		if round > 0 && !out.Result.Warm {
			t.Error("re-solve on the same session was not warm")
		}
	}

	m := srv.Metrics()
	if m.Sessions != 1 || len(m.Shards) != 1 || m.Shards[0].Solves != 2 {
		t.Errorf("unexpected metrics: %+v", m)
	}
}
