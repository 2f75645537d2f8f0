package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dmc/internal/scenario"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test checks the program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly at reduced size, untraced and
// traced, against a freshly built dmcd: each run must answer every
// request correctly and report every metric BENCHMARK.json names, with
// its unit. observe-durable is not among BENCHMARK.json's workloads but is
// still run here, so it keeps working.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives cmd/dmcd; skipped in -short")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	dmcd := filepath.Join(t.TempDir(), "dmcd")
	if out, err := exec.Command("go", "build", "-o", dmcd, "dmc/cmd/dmcd").CombinedOutput(); err != nil {
		t.Fatalf("building dmcd: %v\n%s", err, out)
	}
	t.Setenv("TMPDIR", t.TempDir())

	workloads := []string{wlFleetCG, wlSweepTiny, wlObserveDurable}
	for _, wl := range spec.Workloads {
		if !slices.Contains(workloads, wl.Name) {
			t.Errorf("BENCHMARK.json names workload %q, which dmcbench does not know", wl.Name)
		}
	}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-dmcd", dmcd, "-workload", wl, "-seed", "7", "-seconds", "0.5",
					"-trace", trace, "-smoke", "-out", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if trace == "0" && res.Metrics["success_ratio"].Value != 1 {
					t.Errorf("success_ratio %v, want 1 (failed_ratio 0)", res.Metrics["success_ratio"].Value)
				}
			})
		}
	}
}

// TestCheckerGatesOnLibraryReplay feeds the checker a served answer equal
// to the library's warm replay, then one off by a small amount: the first
// passes, the second fails.
func TestCheckerGatesOnLibraryReplay(t *testing.T) {
	w, err := generate(wlFleetCG, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	sc := newSchedule(w, 2)
	chk := newChecker(w, sc)
	if len(chk.ids) == 0 {
		t.Fatal("no sampled requests")
	}
	for _, id := range chk.ids {
		r := &sc.reqs[id]
		se := w.sessions[r.sess]
		visit := r.step // the session's first pass reaches round r.step at answer r.step
		want, err := replay(se, w.shape.rounds, visit)
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range []float64{0, 1e-7} {
			body, err := json.Marshal(scenario.SolveResponse{SessionID: se.id,
				Result: &scenario.SolveResult{Quality: want.quality + delta, CostPerSecond: want.cost}})
			if err != nil {
				t.Fatal(err)
			}
			_, err = chk.verifyOne(r, body, visit)
			if (err != nil) != (delta != 0) {
				t.Errorf("session %s round %d, served quality off by %g: verify error %v", se.id, r.step, delta, err)
			}
		}
	}
}
